import random

import pytest
from hypothesis import given, settings, strategies as st

from treeforge.idoneal import (
    EULER_IDONEAL_NUMBERS,
    Representation,
    _divisor_top,
    _has_strict_representation_from,
    _least_divisors,
    _mark_pass,
    _represented_from,
    cheapest_theta,
    idoneal_numbers_up_to,
    is_idoneal,
    representable_sieve,
    strict_representations,
    theta_representations,
)

from oracles import (
    naive_strict_representations,
    naive_theta_representations,
    strided_pass,
    strided_sieve,
)


def test_known_representations():
    assert strict_representations(11) == [Representation(1, 2, 3)]
    assert strict_representations(22) == []
    assert strict_representations(47) == naive_strict_representations(47)


def test_is_idoneal_examples():
    assert is_idoneal(1848)
    assert not is_idoneal(11)
    assert is_idoneal(1)


def test_euler_list_shape():
    assert len(EULER_IDONEAL_NUMBERS) == 65
    assert max(EULER_IDONEAL_NUMBERS) == 1848


def test_scan_matches_euler_list():
    assert set(idoneal_numbers_up_to(1848)) == EULER_IDONEAL_NUMBERS


def test_theta_representations_examples():
    assert theta_representations(8) == [Representation(1, 2, 2)]
    assert theta_representations(12) == [Representation(2, 2, 2)]
    assert theta_representations(3) == []


def test_theta_representations_sorted_by_sum():
    reps = theta_representations(100)
    sums = [r.a + r.b + r.c for r in reps]
    assert sums == sorted(sums)
    assert all(r.a * r.b + r.a * r.c + r.b * r.c == 100 for r in reps)


@given(st.integers(1, 400))
@settings(max_examples=200)
def test_strict_matches_naive(n):
    assert [tuple(r) for r in strict_representations(n)] == naive_strict_representations(n)


@given(st.integers(3, 400))
@settings(max_examples=200)
def test_theta_matches_naive(n):
    assert sorted(tuple(r) for r in theta_representations(n)) == naive_theta_representations(n)


@given(st.integers(3, 500))
@settings(max_examples=150)
def test_theta_supersets_strict(n):
    strict = {tuple(r) for r in strict_representations(n)}
    theta = {tuple(r) for r in theta_representations(n)}
    assert strict <= theta


def test_sieve_agrees_with_direct_check():
    sieve = representable_sieve(2000)
    for n in range(1, 2001):
        assert bool(sieve[n]) == (not is_idoneal(n))


def test_every_representation_verifies():
    for n in (47, 100, 360, 1999):
        for a, b, c in strict_representations(n):
            assert 0 < a < b < c
            assert a * b + a * c + b * c == n


def _first_theta(n):
    return (theta_representations(n) or [None])[0]


def test_cheapest_theta_is_first_theta_up_to_20000():
    for n in range(3, 20001):
        assert cheapest_theta(n) == _first_theta(n), n


def test_cheapest_theta_is_first_theta_sampled_to_a_million():
    rng = random.Random(20260601)
    for n in [rng.randrange(20001, 10**6 + 1) for _ in range(40)] + [10**6]:
        assert cheapest_theta(n) == _first_theta(n), n


def test_cheapest_theta_on_idoneal_numbers():
    for n in sorted(EULER_IDONEAL_NUMBERS):
        if n >= 3:
            assert cheapest_theta(n) == _first_theta(n), n
    assert cheapest_theta(3) is None
    with pytest.raises(ValueError):
        cheapest_theta(2)


def test_sieve_matches_strided_reference():
    for limit in range(0, 3001):
        assert representable_sieve(limit) == strided_sieve(limit), limit
    assert representable_sieve(10**5) == strided_sieve(10**5)


def test_survivor_check_matches_naive():
    for n in range(1, 700):
        reps = naive_strict_representations(n)
        for a in range(1, 17):
            assert _has_strict_representation_from(n, a) == any(r[0] >= a for r in reps), (n, a)


def test_least_divisor_lists_match_their_definition():
    # the d in (2a, top] with no divisor in (2a, d), stepped a at a time from
    # several starting points, the composites kept ascending and prime-free
    for top in list(range(0, 60)) + [200, 365, 1000]:
        for start in (1, 2, 3, 7, 16):
            divisors = _least_divisors(top, start)
            for a in range(start, start + 12):
                primes, lo, composites = next(divisors)
                want = [d for d in range(2 * a + 1, top + 1) if all(d % k for k in range(2 * a + 1, d))]
                assert primes[lo:] == [d for d in want if all(d % k for k in range(2, d))], (top, a)
                assert composites == [d for d in want if d not in primes[lo:]], (top, a)


def test_each_pass_matches_a_full_divisor_pass():
    # each least-divisor pass, on an empty sieve, marks exactly what the
    # pass through every d in (2a, sqrt(n + a^2)) marks
    for limit in range(0, 3001):
        divisors = _least_divisors(_divisor_top(limit), 1)
        for a in range(1, 9):
            fast, full = bytearray(limit + 1), bytearray(limit + 1)
            _mark_pass(fast, a, *next(divisors))
            strided_pass(full, a)
            assert fast == full, (limit, a)


def test_least_divisor_survivor_check_matches_naive():
    reps = {n: naive_strict_representations(n) for n in range(1, 700)}
    for a in range(1, 17):
        want = [n for n in range(1, 700) if any(r[0] >= a for r in reps[n])]
        assert sorted(_represented_from(list(range(699, 0, -1)), a)) == want, a
        for n in range(1, 700):
            assert _represented_from([n], a) == [n] * (n in want), (n, a)
    assert _represented_from([], 1) == []


def test_sieve_needs_no_full_divisor_scan(monkeypatch):
    import treeforge.idoneal as idoneal

    def refuse(*args, **kwargs):
        raise AssertionError("the sieve called _divisor_pairs")

    monkeypatch.setattr(idoneal, "_divisor_pairs", refuse)
    assert representable_sieve(10**5) == strided_sieve(10**5)


# Below 65**2 = 4225 the 65 idoneal numbers outnumber isqrt(limit), so the
# sieve runs every strided pass; from 4225 on it switches to trial division
# after 9 passes, and after 8, 7, 6 and 5 from 4489, 4761, 5625 and 9025.
@pytest.mark.parametrize("switch", [4225, 4489, 4761, 5625, 9025])
def test_sieve_matches_strided_reference_across_the_switch(switch):
    for limit in range(switch - 3, switch + 3):
        assert representable_sieve(limit) == strided_sieve(limit), limit


def test_idoneal_numbers_up_to_reads_the_sieve():
    for limit in (0, 1, 2, 1848, 5000):
        sieve = strided_sieve(limit)
        assert idoneal_numbers_up_to(limit) == [n for n in range(1, limit + 1) if not sieve[n]]

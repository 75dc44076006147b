"""Representability of n as ab + ac + bc and Euler's idoneal numbers.

n is idoneal iff it has no representation n = ab + ac + bc with
0 < a < b < c. Euler found 65 such numbers, the largest being 1848, and no
further one is known; the scan here confirms there is none up to any
desk-scale limit.

theta_representations relaxes the strict ordering to 1 <= a <= b <= c with
at most one value equal to 1: exactly the parameter triples for which the
theta graph is simple.

Every search rests on the identity n + a^2 = (a + b)(a + c). For fixed a,
the triples are the divisor pairs d * e = N = n + a^2 with d = a + b and
e = a + c, so b <= c is d <= sqrt(N), b >= a is d >= 2a (d >= 3 when a = 1,
which keeps b >= 2), and the theta has a + b + c = d + N/d - a edges. The
bounds are part of the contract: a < sqrt(n/3), because n > 3a^2 for
a < b < c (a <= sqrt(n/3) when b and c may equal a), and b < c is d^2 < N.

- _divisor_pairs lists the triples for each a in turn, d rising from its
  least value while d^2 < N (d^2 <= N for thetas). strict_representations
  and theta_representations take every triple; is_idoneal stops at the
  first. The sieve does not use it, so these stay a full-divisor scan that
  the sieve can be checked against.
- cheapest_theta scans d downward from isqrt(N). d + N/d falls strictly as
  d rises towards sqrt(N), so the first divisor found is the cheapest
  theta for that a. A scan stops once d + N/d - a exceeds the best sum so
  far, since smaller d only cost more. Every sum for a is at least
  2*sqrt(N) - a, which does not fall as a falls while 3a^2 <= n; so once
  that bound exceeds the best sum, no smaller a can reach it and the scan
  over a ends. Equal sums go to the smaller a, the lex-least triple.
- representable_sieve needs only the least divisors of each a: the d > 2a
  with no divisor in (2a, d), that is d // spf(d) <= 2a for the smallest
  prime factor spf(d). They are the primes above 2a and the composites
  p * m with 2 <= m <= 2a and p <= spf(m) prime, all at most (2a)^2. If
  N = n + a^2 = d * e with 2a < d < e, the least divisor q of N above 2a
  is one of them (a divisor of q in (2a, q) would divide N), and q <= d,
  so q^2 < N. Hence a pass of a, which marks the arithmetic progression
  N = d * e, e > d, for each least divisor d, marks exactly the n that a
  pass through every d in (2a, sqrt(N)) marks, with about L ln ln sqrt(L)
  writes for limit L instead of L ln sqrt(L). Once at most isqrt(limit)
  cells are unmarked, each survivor n is decided by the same argument: it
  has a strict representation with a not yet passed iff some such a with
  3a^2 < n has a least divisor d dividing N with d^2 < N, since then
  b = d - a > a and c = N/d - a > b. A survivor with no such divisor has
  no strict representation at all, so the sieve is exact.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import islice
from math import isqrt
from typing import NamedTuple


class Representation(NamedTuple):
    a: int
    b: int
    c: int


#: Euler's 65 idoneal numbers.
EULER_IDONEAL_NUMBERS = frozenset(
    {
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25,
        28, 30, 33, 37, 40, 42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93,
        102, 105, 112, 120, 130, 133, 165, 168, 177, 190, 210, 232, 240,
        253, 273, 280, 312, 330, 345, 357, 385, 408, 462, 520, 760, 840,
        1320, 1365, 1848,
    }
)


def _divisor_pairs(n: int, strict: bool, a: int = 1):
    """Representations of n with smallest value at least a, from the divisor
    pairs d * e = n + a^2 with d = a + b <= e = a + c, in lex order: those
    with a < b < c if strict, else those with a <= b <= c and b >= 2."""
    slack = 0 if strict else 1  # admits 3a^2 = n and d = e
    top = n + slack
    while 3 * a * a < top:
        big = n + a * a
        bound = big + slack
        d = 2 * a + 1 - slack if a > 1 else 3
        while d * d < bound:
            if big % d == 0:
                yield Representation(a, d - a, big // d - a)
            d += 1
        a += 1


def strict_representations(n: int) -> list[Representation]:
    """All (a, b, c) with 0 < a < b < c and ab + ac + bc = n, lex ordered."""
    if n < 1:
        raise ValueError("n must be positive")
    return list(_divisor_pairs(n, True))


def is_idoneal(n: int) -> bool:
    if n < 1:
        raise ValueError("n must be positive")
    return not _has_strict_representation_from(n, 1)


def theta_representations(n: int) -> list[Representation]:
    """All 1 <= a <= b <= c with at most one 1 and ab + ac + bc = n.

    Sorted by a + b + c ascending (then lexicographically), so the first
    entry gives the cheapest theta witness.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    return sorted(_divisor_pairs(n, False), key=lambda r: (r.a + r.b + r.c, r))


def cheapest_theta(n: int) -> Representation | None:
    """theta_representations(n)[0], or None when n has no theta, found from
    divisor pairs of n + a^2 without listing the other representations."""
    if n < 3:
        raise ValueError("n must be >= 3")
    best = None
    best_sum = 0
    a = isqrt(n // 3)  # largest a with 3a^2 <= n
    while a >= 1:
        big = n + a * a
        if best is not None and 4 * big > (best_sum + a) ** 2:
            break  # 2*sqrt(big) - a > best_sum, here and for every smaller a
        d_min = 3 if a == 1 else 2 * a
        d = isqrt(big)
        while d >= d_min:
            if best is not None and d * (d - a - best_sum) + big > 0:
                break  # d + big/d - a > best_sum, and it grows as d falls
            if big % d == 0:
                e = big // d
                best, best_sum = Representation(a, d - a, e - a), d + e - a
                break
            d -= 1
        a -= 1
    return best


def representable_sieve(limit: int) -> bytearray:
    """sieve[n] = 1 iff n <= limit has a strict representation.

    Marks every n = d * e - a^2 with 2a < d < e by walking e in arithmetic
    progressions of step d, one pass per a and only through the least
    divisors d of a, until at most isqrt(limit) cells are left unmarked;
    each of those is then decided by trial division by least divisors (see
    the module docstring).
    """
    sieve = bytearray(limit + 1)
    survivors_cap = isqrt(limit)
    divisors = _least_divisors(_divisor_top(limit), 1)
    a = 1
    while 3 * a * a < limit:
        _mark_pass(sieve, a, *next(divisors))
        a += 1
        if sieve.count(0, 1) <= survivors_cap:
            break
    for n in _represented_from(list(_unmarked(sieve)), a):
        sieve[n] = 1
    return sieve


def _divisor_top(limit: int) -> int:
    """A bound on every d the sieve tries up to limit: d^2 < n + a^2 with
    3a^2 < n <= limit, so d^2 < 4 * limit / 3."""
    return isqrt(4 * limit // 3) + 1


def _least_divisors(top: int, a: int):
    """For a, a + 1, ... in turn, the least divisors above 2a up to top, as
    (primes, lo, composites): the primes among them are primes[lo:] and the
    composites are the ascending list composites. Every a shares the one
    primes list, and composites is updated in place, so a caller reads it
    before asking for the next a."""
    spf = list(range(top + 1))  # smallest prime factors
    for p in range(2, isqrt(top) + 1):
        if spf[p] == p:
            for m in range(p * p, top + 1, p):
                if spf[m] == m:
                    spf[m] = p
    primes = [d for d in range(2, top + 1) if spf[d] == d]
    low = 2 * a
    composites = [d for d in range(low + 1, top + 1) if spf[d] != d and d // spf[d] <= low]
    while True:
        yield primes, bisect_right(primes, low), composites
        # the next a drops the composites up to low + 2 and admits those
        # whose largest proper divisor m is low + 1 or low + 2, the p * m
        # with p <= spf(m) prime; each is at least 2m > low + 2
        del composites[: bisect_right(composites, low + 2)]
        for m in (low + 1, low + 2):
            for p in primes:
                if p * m > top or p > spf[m]:
                    break
                insort(composites, p * m)
        low += 2


def _mark_pass(sieve: bytearray, a: int, primes: list[int], lo: int, composites: list[int]) -> None:
    """Mark every n = d * e - a^2 <= len(sieve) - 1 with e > d, for each
    least divisor d above 2a (primes[lo:] and composites)."""
    limit = len(sieve) - 1
    aa = a * a
    for ds in (islice(primes, lo, None), composites):
        for d in ds:
            start = d * (d + 1) - aa  # e = d + 1
            if start > limit:
                break
            # a bytearray source: slice assignment copies a bytes one first
            sieve[start::d] = bytearray(b"\x01") * ((limit - start) // d + 1)


def _represented_from(ns: list[int], a: int) -> list[int]:
    """The n in ns with n = a'b + a'c + bc for some a' >= a and a' < b < c:
    those where some a' with 3a'^2 < n has a least divisor d above 2a'
    dividing N = n + a'^2 with d^2 < N. Each a' is tried on every n still
    undecided, so its least divisors are listed once."""
    left = sorted(ns)
    found: list[int] = []
    divisors = _least_divisors(_divisor_top(max(ns, default=0)), a)
    while True:
        del left[: bisect_right(left, 3 * a * a)]  # no room for a' >= a
        if not left:
            return found
        primes, lo, composites = next(divisors)
        aa = a * a
        kept = 0
        for n in left:
            if _has_divisor_below_root(n + aa, islice(primes, lo, None), composites):
                found.append(n)
            else:
                left[kept] = n
                kept += 1
        del left[kept:]
        a += 1


def _has_divisor_below_root(big: int, *ascending) -> bool:
    """Whether some d in the ascending iterables, with d^2 < big, divides big."""
    for ds in ascending:
        for d in ds:
            if d * d >= big:
                break
            if big % d == 0:
                return True
    return False


def _unmarked(sieve: bytearray):
    """The n >= 1 with sieve[n] = 0, ascending."""
    n = sieve.find(0, 1)
    while n != -1:
        yield n
        n = sieve.find(0, n + 1)


def _has_strict_representation_from(n: int, a: int) -> bool:
    """Whether n = ab + ac + bc for some a' >= a and a' < b < c."""
    return next(_divisor_pairs(n, True, a), None) is not None


def idoneal_numbers_up_to(limit: int) -> list[int]:
    """All representation-free n in 1..limit, via the sieve."""
    return list(_unmarked(representable_sieve(limit)))

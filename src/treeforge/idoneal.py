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
  and theta_representations take every triple; is_idoneal and the sieve's
  survivor check stop at the first.
- cheapest_theta scans d downward from isqrt(N). d + N/d falls strictly as
  d rises towards sqrt(N), so the first divisor found is the cheapest
  theta for that a. A scan stops once d + N/d - a exceeds the best sum so
  far, since smaller d only cost more. Every sum for a is at least
  2*sqrt(N) - a, which does not fall as a falls while 3a^2 <= n; so once
  that bound exceeds the best sum, no smaller a can reach it and the scan
  over a ends. Equal sums go to the smaller a, the lex-least triple.
- representable_sieve marks arithmetic progressions a pass of a at a time,
  but after a few passes nearly every write lands on a marked cell. Once
  at most isqrt(limit) cells are unmarked, each survivor n is decided
  alone: it has a strict representation with a not yet passed iff some
  such a with 3a^2 < n has a divisor d of N with 2a < d < sqrt(N), since
  then b = d - a > a and c = N/d - a > b. A survivor with no such divisor
  has no strict representation at all, so the sieve is exact.
"""

from __future__ import annotations

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

    Marks every n = ab + c(a+b) by walking c in arithmetic progressions of
    step a+b, one pass per a, until at most isqrt(limit) cells are left
    unmarked; each of those is then decided by trial division (see the
    module docstring).
    """
    sieve = bytearray(limit + 1)
    survivors_cap = isqrt(limit)
    a = 1
    while 3 * a * a < limit:
        b = a + 1
        while 2 * a * b + b * b < limit:
            step = a + b
            start = a * b + step * (b + 1)  # c = b + 1
            if start <= limit:
                count = (limit - start) // step + 1
                sieve[start : limit + 1 : step] = b"\x01" * count
            b += 1
        a += 1
        if sieve.count(0, 1) <= survivors_cap:
            break
    for n in _unmarked(sieve):
        if _has_strict_representation_from(n, a):
            sieve[n] = 1
    return sieve


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

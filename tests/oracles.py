"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: spanning trees by enumerating edge
subsets, isomorphism by trying all vertex permutations, representations by
a bare triple loop. None of it shares code with the package.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from treeforge.graph_core import Multigraph


def brute_tau(g: Multigraph) -> int:
    """Count spanning trees by checking every (n-1)-subset of edge slots."""
    n = g.vertex_count
    if n == 1:
        return 1
    slots = g.slots()
    count = 0
    for subset in combinations(range(len(slots)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i in subset:
            u, v, _ = slots[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def brute_isomorphic(
    g: Multigraph, h: Multigraph, g_colors: list | None = None, h_colors: list | None = None
) -> bool:
    """Some permutation maps h onto g, edge multiplicities and (when given)
    vertex colors included."""
    if g.vertex_count != h.vertex_count:
        return False
    n = h.vertex_count
    gc = g_colors if g_colors is not None else [0] * n
    hc = h_colors if h_colors is not None else [0] * n
    gm = {(u, v): m for u, v, m in g.edges}
    for perm in permutations(range(n)):
        if any(gc[perm[v]] != hc[v] for v in range(n)):
            continue
        hm = {}
        for u, v, m in h.edges:
            a, b = perm[u], perm[v]
            hm[(min(a, b), max(a, b))] = m
        if hm == gm:
            return True
    return False


def brute_subdivision_sweep(
    vertex_count: int, slots, n: int, budget: int, count
) -> tuple[int, list[tuple[int, ...]]]:
    """(tried, hits) of a skeleton sweep, by listing every length vector in
    a box with itertools.product and counting each subdivision with
    ``count``: tried is the number of admissible vectors on fewer than
    ``budget`` vertices with at most n trees, hits those with exactly n, in
    lexicographic order. Admissible: loops of length >= 3, and at most one
    slot of length 1 between any two skeleton vertices."""
    floors = [3 if a == b else 1 for a, b in slots]
    spare = budget - 1 - vertex_count - sum(f - 1 for f in floors)
    if spare < 0:
        return 0, []
    tried, hits = 0, []
    for vec in product(*(range(f, f + spare + 1) for f in floors)):
        if sum(l - f for l, f in zip(vec, floors)) > spare:
            continue
        ones: dict[tuple[int, int], int] = {}
        for (a, b), l in zip(slots, vec):
            if a != b and l == 1:
                ones[(a, b)] = ones.get((a, b), 0) + 1
        if any(c > 1 for c in ones.values()):
            continue
        pairs, nxt = [], vertex_count
        for (a, b), l in zip(slots, vec):
            path = [a, *range(nxt, nxt + l - 1), b]
            nxt += l - 1
            pairs.extend(zip(path, path[1:]))
        t = count(Multigraph.from_edges(nxt, pairs))
        if t <= n:
            tried += 1
            if t == n:
                hits.append(vec)
    return tried, hits


def naive_strict_representations(n: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if a * b > n:
                break
            for c in range(b + 1, n + 1):
                s = a * b + a * c + b * c
                if s > n:
                    break
                if s == n:
                    out.append((a, b, c))
    return out


def naive_theta_representations(n: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a == 1 and b == 1:
                continue
            if a * b > n:
                break
            for c in range(b, n + 1):
                s = a * b + a * c + b * c
                if s > n:
                    break
                if s == n:
                    out.append((a, b, c))
    return out


def strided_sieve(limit: int) -> bytearray:
    """sieve[n] = 1 iff n <= limit has a strict representation.

    Marks every n = ab + c(a+b) by walking c in arithmetic progressions of
    step a+b, over every (a, b) that can reach the limit.
    """
    sieve = bytearray(limit + 1)
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
    return sieve


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_connected_multigraph(
    rng: random.Random, max_vertices: int = 7, extra_edges: int = 4, max_mult: int = 3
) -> Multigraph:
    """Random spanning tree plus random extra copies: always connected."""
    n = rng.randint(2, max_vertices)
    pairs = []
    for v in range(1, n):
        pairs.append((rng.randrange(v), v, rng.randint(1, max_mult)))
    for _ in range(rng.randint(0, extra_edges)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.append((u, v, rng.randint(1, max_mult)))
    return Multigraph.from_edges(n, pairs)


def random_simple_connected(rng: random.Random, max_vertices: int = 8) -> Multigraph:
    n = rng.randint(2, max_vertices)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return Multigraph.from_edges(n, pairs)

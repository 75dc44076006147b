"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: spanning trees by enumerating edge
subsets or, modulo a prime, by dense Gaussian elimination, isomorphism by
trying all vertex permutations, representations by a bare triple loop.
None of it shares code with the package, except the references at the
end. Two are pre-pruning: they keep the code paths that the skeleton prune
and the orbit-least witness filter replaced, canonical_form included, so
that the pruned versions can be checked to change no output. Two keep the
non-incremental forms of the prune and the filter, fast enough to check
the incremental ones on level 5 and on large hit lists. One keeps the
separate alpha and beta walks over the levels that one shared walk replaced.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from treeforge.graph_core import Multigraph, canonical_form, cycle_graph, subdivision
from treeforge.minimal_builder import Strategy, Witness
from treeforge.search_oracle import (
    SearchKind,
    SearchResult,
    Skeleton,
    _cap_tier,
    _level,
    _sweeps,
)


def brute_tau(g: Multigraph) -> int:
    """Count spanning trees by checking every (n-1)-subset of edge slots."""
    n = g.vertex_count
    if n == 1:
        return 1
    slots = [(u, v) for u, v, m in g.edges for _ in range(m)]
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
            u, v = slots[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


#: The Mersenne prime 2^61 - 1.
P61 = (1 << 61) - 1


def det_mod_p(g: Multigraph, p: int) -> int:
    """The spanning-tree count of g modulo the prime p: the determinant of
    the Laplacian with vertex 0 deleted, by dense Gaussian elimination over
    the integers mod p, swapping rows for a nonzero pivot."""
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        lap[u][u] += m
        lap[v][v] += m
        lap[u][v] -= m
        lap[v][u] -= m
    a = [[x % p for x in row[1:]] for row in lap[1:]]
    det = 1
    for c in range(n - 1):
        r = next((r for r in range(c, n - 1) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        ac = a[c]
        det = det * ac[c] % p
        inv = pow(ac[c], -1, p)
        for r in range(c + 1, n - 1):
            f = a[r][c] * inv % p
            if f:
                a[r][c:] = [(x - f * y) % p for x, y in zip(a[r][c:], ac[c:])]
    return det % p


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


def subdivision_via_edges(skeleton: Skeleton, lengths) -> Multigraph:
    """graph_core.subdivision by the route it took before it wrote its
    triples itself: every slot's path as (u, v) pairs, interior vertices
    numbered from vertex_count on, slot by slot, all normalised by
    Multigraph.from_edges (which rejects a loop of length 1)."""
    pairs, nxt = [], skeleton.vertex_count
    for (a, b), l in zip(skeleton.slots, lengths):
        path = [a, *range(nxt, nxt + l - 1), b]
        nxt += l - 1
        pairs.extend(zip(path, path[1:]))
    return Multigraph.from_edges(nxt, pairs)


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
        t = count(subdivision_via_edges(Skeleton(vertex_count, tuple(slots)), vec))
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


def strided_pass(sieve: bytearray, a: int) -> None:
    """Mark, for one a, every n = ab + c(a+b) <= len(sieve) - 1 with
    a < b < c: the arithmetic progression of step d = a+b for every b, that
    is, through every divisor d of n + a^2 with 2a < d < (n + a^2)/d."""
    limit = len(sieve) - 1
    b = a + 1
    while 2 * a * b + b * b < limit:
        step = a + b
        start = a * b + step * (b + 1)  # c = b + 1
        if start <= limit:
            count = (limit - start) // step + 1
            sieve[start : limit + 1 : step] = b"\x01" * count
        b += 1


def strided_sieve(limit: int) -> bytearray:
    """sieve[n] = 1 iff n <= limit has a strict representation.

    Marks every n = ab + c(a+b) by walking c in arithmetic progressions of
    step a+b, over every (a, b) that can reach the limit.
    """
    sieve = bytearray(limit + 1)
    a = 1
    while 3 * a * a < limit:
        strided_pass(sieve, a)
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


def random_multigraph(rng: random.Random, max_vertices: int = 12, max_subsets: int = 3000) -> Multigraph:
    """Random pairs with multiplicities 1 to 3, connected or not. Pairs
    stop before brute_tau would test more than max_subsets edge subsets."""
    n = rng.randint(2, max_vertices)
    slots, pairs = 0, []
    for _ in range(rng.randint(n // 2, 3 * n)):
        u, v = rng.sample(range(n), 2)
        m = rng.choice((1, 1, 1, 2, 3))
        if comb(slots + m, n - 1) > max_subsets:
            break
        slots += m
        pairs.append((u, v, m))
    return Multigraph.from_edges(n, pairs)


def grid_graph(rows: int, cols: int) -> Multigraph:
    """The rows x cols grid, labelled row by row."""
    pairs = [(i, i + 1) for i in range(rows * cols) if (i + 1) % cols]
    pairs += [(i, i + cols) for i in range(rows * cols - cols)]
    return Multigraph.from_edges(rows * cols, pairs)


def square_of_cycle(n: int) -> Multigraph:
    """C_n^2: each vertex joined to the next two around an n-cycle."""
    return Multigraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    )


def shuffled(g: Multigraph, rng: random.Random) -> Multigraph:
    """g under a random relabelling."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return g.relabeled(perm)


def skeleton_of(g: Multigraph) -> Skeleton:
    """The skeleton with one slot per edge copy of g, in edge order."""
    return Skeleton(g.vertex_count, tuple((u, v) for u, v, m in g.edges for _ in range(m)))


def suppress_degree_two(g: Multigraph) -> tuple[Skeleton, tuple[int, ...]]:
    """The skeleton and slot lengths of which the connected graph g is the
    subdivision: every vertex of degree 2 is suppressed into the path
    through it, by walking each path from a vertex of another degree (a
    branch vertex) to the next one. Branch vertices keep their order; a
    graph with no branch vertex, a cycle, becomes one loop."""
    copies = [(u, v) for u, v, m in g.edges for _ in range(m)]
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for i, (u, v) in enumerate(copies):
        incident[u].append(i)
        incident[v].append(i)
    branch = [v for v in range(g.vertex_count) if len(incident[v]) != 2]
    if not branch:
        return Skeleton(1, ((0, 0),)), (len(copies),)
    index = {v: i for i, v in enumerate(branch)}
    used = [False] * len(copies)
    slots, lengths = [], []
    for a in branch:
        for first in incident[a]:
            if used[first]:
                continue
            e, x, length = first, a, 0
            while True:
                used[e] = True
                length += 1
                u, v = copies[e]
                x = v if x == u else u
                if x in index:
                    break
                e = next(i for i in incident[x] if i != e)
            slots.append(tuple(sorted((index[a], index[x]))))
            lengths.append(length)
    return Skeleton(len(branch), tuple(slots)), tuple(lengths)


def random_simple_connected(rng: random.Random, max_vertices: int = 8) -> Multigraph:
    n = rng.randint(2, max_vertices)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return Multigraph.from_edges(n, pairs)


# ---------------------------------------------------------------------------
# pre-pruning references (share canonical_form and the sweep with the package)


@lru_cache(maxsize=None)
def reference_skeletons(cyclomatic: int) -> tuple[Skeleton, ...]:
    """enumerate_skeletons without the transposition prune: every valid
    cell-count vector is canonicalised, the first of each class kept."""
    found = {}
    for v in range(1, 2 * (cyclomatic - 1) + 1):
        e = v + cyclomatic - 1
        cells = sorted((i, j) for i in range(v) for j in range(i, v))
        counts = [0] * len(cells)
        deg = [0] * v

        def place(idx, remaining):
            if remaining == 0:
                if any(d < 3 for d in deg):
                    return
                loops = [0] * v
                triples = []
                for (a, b), m in zip(cells, counts):
                    if a == b:
                        loops[a] += m
                    elif m:
                        triples.append((a, b, m))
                residue = Multigraph(v, tuple(triples))
                if not residue.is_connected():
                    return
                key = canonical_form(residue, colors=loops)
                if key not in found:
                    slots = []
                    for cell, m in zip(cells, counts):
                        slots.extend([cell] * m)
                    found[key] = Skeleton(v, tuple(slots))
                return
            if idx == len(cells):
                return
            if sum(max(0, 3 - d) for d in deg) > 2 * remaining:
                return
            i, j = cells[idx]
            if any(deg[x] < 3 for x in range(i)):
                return
            gain = 2 if i == j else 1
            for m in range(remaining + 1):
                counts[idx] = m
                deg[i] += gain * m
                if i != j:
                    deg[j] += m
                place(idx + 1, remaining - m)
                deg[i] -= gain * m
                if i != j:
                    deg[j] -= m
            counts[idx] = 0

        place(0, e)
    return tuple(sorted(found.values(), key=lambda s: (s.vertex_count, s.slots)))


def reference_witnesses(n: int, budget: int) -> list[Multigraph]:
    """The witnesses of verify_no_smaller_graph(n, budget) as they were
    found before the orbit-least filter: the cycle when it fits, then every
    hit of every sweep built and kept when its canonical form is new."""
    witnesses = []
    seen = set()
    if n < budget:
        witnesses.append(cycle_graph(n))
        seen.add(canonical_form(witnesses[0]))
    c = 2
    while True:
        sweeps, level_min = _sweeps(c)
        for sweep in sweeps:
            if sweep.min_tau > n or sweep.min_vertices >= budget:
                continue
            for vec in sweep.find_assignments(n, budget)[1]:
                g = subdivision(sweep.skeleton, vec)
                key = canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    witnesses.append(g)
        if level_min > n:
            return witnesses
        c += 1


def reference_search(n: int, kind: str, budget: int) -> SearchResult:
    """alpha_exact(n, budget) or beta_exact(n, budget), argument checks
    aside, as two separate walks over the levels: alpha stops at the first
    level with a hit and takes its first hit; beta walks every level and
    keeps a hit only with fewer edges than the best so far."""
    cap = _cap_tier(n)
    levels = []

    def space():
        return {
            "kind": kind,
            "budget": budget,
            "filter": f"connected simple graphs, tree count <= {cap} "
            "(hereditary under non-cut-vertex deletion), one per isomorphism class",
            "classes_per_level": {str(k): c for k, c in levels},
        }

    if kind == "alpha":
        for k in range(1, budget + 1):
            level = _level(k, cap)
            levels.append((k, len(level)))
            hits = [(g, t) for g, t in level if t == n]
            if hits:
                g, t = hits[0]
                w = Witness(g, t, k, g.edge_count, Strategy.SEARCH)
                return SearchResult(n, SearchKind.ALPHA, k, w, space())
        return SearchResult(n, SearchKind.ALPHA, None, None, space())
    best = None
    for k in range(1, budget + 1):
        level = _level(k, cap, budget)
        levels.append((k, len(level)))
        for g, t in level:
            if t == n and g.edge_count <= budget:
                if best is None or g.edge_count < best[0]:
                    best = (g.edge_count, g, t)
    if best is None:
        return SearchResult(n, SearchKind.BETA, None, None, space())
    edges, g, t = best
    w = Witness(g, t, g.vertex_count, edges, Strategy.SEARCH)
    return SearchResult(n, SearchKind.BETA, edges, w, space())


def full_transposition_sources(v: int, cells: list[tuple[int, int]]) -> list[list[int]]:
    """For each vertex transposition (a b), a < b, the index of the cell
    that each cell's count comes from when the counts are permuted by it."""
    index = {cell: k for k, cell in enumerate(cells)}
    out = []
    for a in range(v):
        for b in range(a + 1, v):
            swap = {a: b, b: a}
            src = []
            for i, j in cells:
                x, y = swap.get(i, i), swap.get(j, j)
                src.append(index[(x, y) if x <= y else (y, x)])
            out.append(src)
    return out


def transposition_skeletons(cyclomatic: int) -> tuple[Skeleton, ...]:
    """enumerate_skeletons with the transposition prune made from scratch
    at every node: each transposition's comparison rescans the whole fixed
    prefix, every cell included, and the degree checks are recomputed from
    the degrees at each node. Level 5 takes about 0.6 s."""
    found = {}
    for v in range(1, 2 * (cyclomatic - 1) + 1):
        e = v + cyclomatic - 1
        cells = sorted((i, j) for i in range(v) for j in range(i, v))
        sources = full_transposition_sources(v, cells)
        counts = [0] * len(cells)
        deg = [0] * v

        def beaten(fixed):
            for src in sources:
                for p in range(fixed):
                    s = src[p]
                    if s >= fixed:
                        break
                    if counts[s] != counts[p]:
                        if counts[s] < counts[p]:
                            return True
                        break
            return False

        def place(idx, remaining):
            if beaten(len(cells) if remaining == 0 else idx):
                return
            if remaining == 0:
                if any(d < 3 for d in deg):
                    return
                slots = []
                for cell, m in zip(cells, counts):
                    slots += [cell] * m
                skel = Skeleton(v, tuple(slots))
                residue, loops = skel.residue()
                if residue.is_connected():
                    found.setdefault(canonical_form(residue, colors=loops), skel)
                return
            if idx == len(cells):
                return
            if sum(max(0, 3 - d) for d in deg) > 2 * remaining:
                return
            i, j = cells[idx]
            if any(deg[x] < 3 for x in range(i)):
                return
            gain = 2 if i == j else 1
            for m in range(remaining + 1):
                counts[idx] = m
                deg[i] += gain * m
                if i != j:
                    deg[j] += m
                place(idx + 1, remaining - m)
                deg[i] -= gain * m
                if i != j:
                    deg[j] -= m
            counts[idx] = 0

        place(0, e)
    return tuple(sorted(found.values(), key=lambda s: (s.vertex_count, s.slots)))


def image_orbit_least(sweep, hits) -> list[tuple[int, ...]]:
    """_Sweep.orbit_least by building each whole image: for every hit and
    automorphism sigma, cell C's lengths, sorted ascending, go onto the
    slots of cell sigma(C) in index order, and the hit is dropped when the
    image is smaller."""
    cells = sweep.cells
    moves = []
    for sigma in sweep.automorphisms():
        move = []
        for (a, b), idxs in cells.items():
            x, y = sigma[a], sigma[b]
            move.append((idxs, cells[(x, y) if x <= y else (y, x)]))
        moves.append(move)
    kept = []
    image = [0] * len(sweep.slots)
    for vec in hits:
        for move in moves:
            for src, dst in move:
                for j, l in zip(dst, sorted(vec[i] for i in src)):
                    image[j] = l
            if tuple(image) < vec:
                break
        else:
            kept.append(vec)
    return kept

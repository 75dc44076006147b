"""Exhaustive computation of the extremal functions alpha and beta, and a
skeleton-subdivision verifier for fixed-point claims.

alpha(n) is the least vertex count of a simple graph with exactly n
spanning trees, beta(n) the least edge count. Both searches enumerate one
representative per isomorphism class of connected simple graphs, growing
level by level (a connected graph always has a non-cut vertex, so every
class on k vertices extends one on k-1). Two hereditary facts prune hard:
removing a non-cut vertex never increases the count, so levels only need
classes with count <= n; and a minimal witness never has a bridge, since
contracting a bridge keeps the count while shrinking the graph.

verify_no_smaller_graph mechanizes the subdivision argument. Any connected
simple graph with count n >= 3 reduces (by deleting pendant vertices,
which keeps the count) to minimum degree 2, and such a graph is either a
cycle or a subdivision of a skeleton: a connected multigraph, loops
allowed, with minimum degree >= 3. For fixed cyclomatic number c there are
finitely many skeletons, the count of a subdivision is coordinatewise
monotone in the path lengths, and the vertex budget bounds the sweep, so
the whole family below a budget can be searched exactly. Levels stop once
the minimum count at cyclomatic number c exceeds n: adding an ear raises
the count by at least 2 (and a new cycle block multiplies it by >= 3), so
deeper levels only grow.

Both steps of the proof keep one labelled object per isomorphism class
without canonicalising every candidate, in the manner of orderly generation
(Read, Ann. Discrete Math. 2, 1978; McKay, J. Algorithms 26, 1998): an
object is kept only if no relabelling makes it lexicographically smaller.
enumerate_skeletons cuts a partial cell-count vector when a vertex
transposition already maps its fixed prefix to a smaller one, and the
sweep keeps a hit vector only when no skeleton automorphism maps it to a
smaller one. The docstrings of enumerate_skeletons and _Sweep give the
arguments that both keep exactly the objects a full canonical dedup keeps.
Both read a skeleton's symmetry off Skeleton.residue(): enumerate_skeletons
keys it by canonical_form, and the sweep takes its automorphisms from the
same search (graph_core.automorphisms), so there is one symmetry search.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from .graph_core import (
    GraphError,
    Multigraph,
    Skeleton,
    automorphisms,
    canonical_form,
    cycle_graph,
    subdivision,
)
from .minimal_builder import Strategy, Witness
from .tree_count import TreeCount, eval_terms, tau_matrix, tree_terms

DEFAULT_VERTEX_CEILING = 9
#: Largest max_edges that beta_exact accepts (see its docstring).
BETA_EDGE_CEILING = 12
#: Largest cyclomatic number whose skeletons verify_no_smaller_graph
#: enumerates. Level 5, first needed at n = 40, enumerates its 1,076
#: skeletons in about 1 s; what stays unbounded is the witness list: at
#: level 5, verify_no_smaller_graph(72, 72) lists 132,244 witness classes
#: in 21 s and 656 MB (CPython 3.11, 2-vCPU VM). The ceiling stays at 4
#: until the effect of WITNESS_CEILING on such runs is measured.
SKELETON_CEILING = 4
#: Default for the most witness classes verify_no_smaller_graph lists. The
#: list grows with the budget: at n = 27, budgets 27, 40, 60 and 80 give
#: 442, 1,560, 5,524 and 13,388 classes (the last in 2.1 s and 107 MB,
#: CPython 3.11, 2-vCPU VM); (36, 36) gives 3,094 and (36, 42) 5,094.
WITNESS_CEILING = 10_000


class SearchKind(enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"


@dataclass(frozen=True)
class SearchResult:
    n: int
    kind: SearchKind
    value: int | None  # None means: nothing within the budget
    witness: Witness | None
    search_space: dict


# ---------------------------------------------------------------------------
# isomorphism-free enumeration of connected simple graphs


def _heavy_vertices(g: Multigraph) -> list[list[tuple[int, int, tuple[int, ...]]]]:
    """Entry s lists (degree, u, component masks of g - u) for every vertex
    u of g with degree >= s, for s = 0..vertex_count."""
    n = g.vertex_count
    adj = [0] * n
    for a, b, _ in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    rows = []
    for u in range(n):
        rest = ((1 << n) - 1) & ~(1 << u)
        comps = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                w = frontier & -frontier
                frontier ^= w
                new = adj[w.bit_length() - 1] & rest & ~comp
                comp |= new
                frontier |= new
            rest &= ~comp
            comps.append(comp)
        rows.append((adj[u].bit_count(), u, tuple(comps)))
    return [[row for row in rows if row[0] >= s] for s in range(n + 1)]


#: Most built levels that _level keeps; the least recently used goes first.
LEVEL_CACHE_SIZE = 128

Level = tuple[tuple[Multigraph, TreeCount], ...]

# built levels, keyed by (k, tau_cap, edge_cap), least recently used first
_levels: OrderedDict[tuple[int, int | None, int | None], Level] = OrderedDict()


def clear_level_cache() -> None:
    """Forget every built level, so the next _level call builds cold."""
    _levels.clear()


def _cap_min(a: int | None, b: int | None) -> int | None:
    """The smaller of two caps, None meaning no cap."""
    if a is None:
        return b
    return a if b is None else min(a, b)


def _fits(g: Multigraph, t: TreeCount, tau_cap: int | None, edge_cap: int | None) -> bool:
    return (tau_cap is None or t <= tau_cap) and (edge_cap is None or g.edge_count <= edge_cap)


def _level(k: int, tau_cap: int | None, edge_cap: int | None = None) -> Level:
    """Connected simple graph classes on exactly k vertices, with their
    counts. Both restrictions are hereditary under non-cut-vertex deletion
    (the count never grows and edges only disappear), so applying them at
    every level loses no extension.

    Each class of level k-1 (sorted by (edge_count, edges)) is extended by
    a new vertex v joined to every nonempty subset S of its vertices, in
    order of the subset's bit mask, and a class keeps the first candidate
    that passes both caps. Two tests skip a candidate C = G + v before it
    is built; each skips only candidates that are never the first of their
    class, so the classes, their representatives and their order are the
    same as without them.

    - Count bound: a spanning tree of G plus one edge v-s, s in S, is a
      spanning tree of C, and all these are distinct, so
      tau(C) >= |S| * tau(G). Above tau_cap the candidate fails the cap.
    - Max-degree rule: skip C when some vertex u of G is a non-cut vertex
      of C with deg_C(u) > |S|. Then C - u is connected, its count is at
      most tau(C) and it has fewer edges, so its class is in level k-1
      under both caps, with |E(C)| - deg_C(u) < |E(G)| edges: its
      representative P comes before G. C is P plus a vertex joined to the
      image of N(u), a candidate that passes the caps exactly when C
      does, so C's class already met a candidate from an earlier parent.
      Ties, deg_C(u) = |S|, are kept: C - u then has as many edges as G,
      and whether P comes before G depends on the representatives' edge
      lists. u is a non-cut vertex of C exactly when S - {u} meets every
      component of G - u, which is tested on bit masks.

    A level under smaller caps is the level under larger caps filtered to
    the smaller ones, with the same representatives in the same order. Let
    X be a class that passes the smaller caps. The parent C - v of each of
    its candidates has a count at most tau(C) and fewer edges, so it
    passes the smaller caps too: by induction on k, X meets the same
    candidates, in the same order, under either pair of caps. Neither skip
    test drops one of them under either pair (|S| * tau(G) <= tau(C), and
    the max-degree rule does not read the caps), and the caps only test
    class invariants, so X keeps the same first candidate. Built levels
    are cached, and a request is served in one of three ways:

    - Filter: a cached level at k whose caps are both at least as large
      is filtered to the requested caps.
    - Extend: otherwise the cached level at k that shares the most classes
      is filtered to the smaller cap of each kind. Those classes are known,
      with their representatives, so a candidate that passes both smaller
      caps is dropped after its count and before canonical_form. Only the
      other classes are built; they are merged with the known ones and
      sorted.
    - Build: with nothing cached at k, every class is built.

    So a level does not depend on which levels were built before it.

    McKay's full canonical-deletion test would skip more, but it needs a
    canonical labelling of every surviving child, so it saves no
    canonical_form call, and it changes which (G, S) yields each class
    and with it the witness edge lists.
    """
    if k < 1:
        return ()
    if k == 1:
        return ((Multigraph(1, ()), 1),)
    request = (k, tau_cap, edge_cap)
    if request in _levels:
        _levels.move_to_end(request)
        return _levels[request]
    # the cached level at k sharing the most classes, a superset first,
    # filtered to the smaller caps
    known: Level = ()
    known_caps: tuple[int | None, int | None] | None = None
    best = (False, -1)
    for (j, tc, ec), cached in _levels.items():
        if j != k:
            continue
        caps = (_cap_min(tc, tau_cap), _cap_min(ec, edge_cap))
        shared = tuple(item for item in cached if _fits(*item, *caps))
        rank = (caps == (tau_cap, edge_cap), len(shared))
        if rank > best:
            best, known, known_caps = rank, shared, caps
    out: dict[bytes, tuple[Multigraph, TreeCount]] = {}
    old = k - 1
    # a cached superset leaves nothing to build
    for g, tau_g in () if best[0] else _level(old, tau_cap, edge_cap):
        edge_list = list(g.edges)
        heavy = _heavy_vertices(g)
        for bits in range(1, 1 << old):
            s = bits.bit_count()
            # g is simple, so the candidate has one edge per pair
            if edge_cap is not None and len(edge_list) + s > edge_cap:
                continue
            if tau_cap is not None and s * tau_g > tau_cap:
                continue
            if any(
                (d > s or bits >> u & 1) and all(bits & c for c in comps)
                for d, u, comps in heavy[s]
            ):
                continue
            pairs = edge_list + [
                (v, old, 1) for v in range(old) if bits >> v & 1
            ]
            cand = Multigraph(k, tuple(sorted(pairs)))
            t = tau_matrix(cand)  # cheaper than canonicalizing, so filter first
            if tau_cap is not None and t > tau_cap:
                continue
            if known_caps is not None and _fits(cand, t, *known_caps):
                continue  # its class is in known
            key = canonical_form(cand)
            if key not in out:
                out[key] = (cand, t)
    level = tuple(
        sorted(known + tuple(out.values()), key=lambda item: (item[0].edge_count, item[0].edges))
    )
    _levels[request] = level
    if len(_levels) > LEVEL_CACHE_SIZE:
        _levels.popitem(last=False)
    return level


def enumerate_connected_graphs(max_vertices: int) -> Iterator[Multigraph]:
    """One representative per isomorphism class of connected simple graphs
    on exactly max_vertices vertices, in deterministic order.

    DEFAULT_VERTEX_CEILING guards against accidentally launching an
    astronomically large enumeration.
    """
    if max_vertices > DEFAULT_VERTEX_CEILING:
        raise GraphError(
            f"enumeration ceiling exceeded: {max_vertices} > {DEFAULT_VERTEX_CEILING}"
        )
    for g, _ in _level(max_vertices, None):
        yield g


def _cap_tier(n: int) -> int:
    """Round the pruning cap up to a power of two so runs with nearby n
    share the memoized levels."""
    return 1 << max(6, (n - 1).bit_length())


def _space(kind: str, budget: int, cap: int, levels: list[tuple[int, int]]) -> dict:
    return {
        "kind": kind,
        "budget": budget,
        "filter": f"connected simple graphs, tree count <= {cap} "
        "(hereditary under non-cut-vertex deletion), one per isomorphism class",
        "classes_per_level": {str(k): c for k, c in levels},
    }


def alpha_exact(n: int, max_vertices: int = 8) -> SearchResult:
    """Smallest vertex count <= max_vertices realizing exactly n trees.

    max_vertices may not exceed DEFAULT_VERTEX_CEILING, as in
    enumerate_connected_graphs: the classes grow super-exponentially (853
    connected graphs on 7 vertices, 11,117 on 8, 261,080 on 9), so a
    larger value starts a search that does not end in practice.
    """
    if n < 3:
        raise GraphError("alpha is defined for n >= 3")
    if max_vertices > DEFAULT_VERTEX_CEILING:
        raise GraphError(
            f"search ceiling exceeded: max_vertices {max_vertices} > {DEFAULT_VERTEX_CEILING}"
        )
    cap = _cap_tier(n)
    levels = []
    for k in range(1, max_vertices + 1):
        level = _level(k, cap)
        levels.append((k, len(level)))
        hits = [(g, t) for g, t in level if t == n]
        if hits:
            g, t = hits[0]
            w = Witness(g, t, k, g.edge_count, Strategy.SEARCH)
            return SearchResult(
                n, SearchKind.ALPHA, k, w, _space("alpha", max_vertices, cap, levels)
            )
    return SearchResult(
        n, SearchKind.ALPHA, None, None, _space("alpha", max_vertices, cap, levels)
    )


def beta_exact(n: int, max_edges: int) -> SearchResult:
    """Smallest edge count <= max_edges realizing exactly n trees.

    A graph with a cycle has at least as many edges as vertices, so levels
    up to max_edges vertices exhaust every candidate.

    max_edges may not exceed BETA_EDGE_CEILING: beta_exact(13, E) for
    E = 9, 10, 11, 12 took 0.46, 2.0, 7.5 and 28 s of CPU time on a 2-vCPU
    Xeon VM, about 4x per extra edge.
    """
    if n < 3:
        raise GraphError("beta is defined for n >= 3")
    if max_edges > BETA_EDGE_CEILING:
        raise GraphError(
            f"search ceiling exceeded: max_edges {max_edges} > {BETA_EDGE_CEILING}"
        )
    cap = _cap_tier(n)
    best: tuple[int, Multigraph, TreeCount] | None = None
    levels = []
    for k in range(1, max_edges + 1):
        level = _level(k, cap, max_edges)
        levels.append((k, len(level)))
        for g, t in level:
            if t == n and g.edge_count <= max_edges:
                if best is None or g.edge_count < best[0]:
                    best = (g.edge_count, g, t)
    space = _space("beta", max_edges, cap, levels)
    if best is None:
        return SearchResult(n, SearchKind.BETA, None, None, space)
    edges, g, t = best
    w = Witness(g, t, g.vertex_count, edges, Strategy.SEARCH)
    return SearchResult(n, SearchKind.BETA, edges, w, space)


# ---------------------------------------------------------------------------
# skeletons: connected multigraphs with loops, min degree >= 3


def _transposition_sources(
    v: int, cells: list[tuple[int, int]]
) -> list[list[int]]:
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


@lru_cache(maxsize=None)
def enumerate_skeletons(cyclomatic: int) -> tuple[Skeleton, ...]:
    """All skeletons with the given cyclomatic number, up to isomorphism,
    ordered by (vertex_count, slots).

    Minimum degree 3 forces vertex_count <= 2 * (cyclomatic - 1). Cached
    per cyclomatic number, so every fixed-point proof in a process
    enumerates each level once; the tuple keeps the shared value immutable.

    For each vertex count, ``place`` fixes the slot count of one cell at a
    time, cells in sorted order, so it visits the count vectors in
    increasing lexicographic order. Its degree cuts only remove subtrees
    without a valid leaf, and validity (degrees, connectivity) does not
    depend on the labelling, so the first leaf it reaches in each class is
    the class's lexicographically least vector: the one that ``found``
    keeps. A node is cut when some vertex transposition maps its fixed
    prefix to a strictly smaller one. The comparison runs over the cells
    in order and stops at the first cell whose count comes from a cell
    still open; at a leaf every cell is fixed. Every completion of a cut
    prefix has a smaller image, so it is not least in its class and is
    never kept, while the class's least vector has no smaller image and is
    never cut. A transposition-minimal vector need not be least, so
    survivors are still deduplicated by the canonical form of their
    residue (Skeleton.residue, loop counts as colors), and the classes,
    representatives and their order are those of the unpruned enumeration.
    """
    if cyclomatic < 2:
        raise GraphError("skeletons here have cyclomatic number >= 2")
    found: dict[bytes, Skeleton] = {}
    for v in range(1, 2 * (cyclomatic - 1) + 1):
        e = v + cyclomatic - 1
        cells = [(i, j) for i in range(v) for j in range(i, v)]
        # cells are ordered so that all cells touching vertex i precede the
        # block where every endpoint exceeds i; once we leave that block,
        # vertex i's degree is final
        cells.sort()
        sources = _transposition_sources(v, cells)
        counts = [0] * len(cells)
        deg = [0] * v

        def beaten(fixed: int) -> bool:
            """Some transposition maps the first ``fixed`` counts to a
            lexicographically smaller prefix."""
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

        def place(idx: int, remaining: int) -> None:
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
            deficit = sum(max(0, 3 - d) for d in deg)
            if deficit > 2 * remaining:
                return
            i, j = cells[idx]
            # cells are sorted, so vertices below the current block's first
            # endpoint cannot gain any more degree
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


# ---------------------------------------------------------------------------
# subdivision sweeps


class _Sweep:
    """Evaluate and enumerate subdivisions of one skeleton.

    The count of a subdivision is the sum over spanning trees T of the
    skeleton of the product of the lengths of the slots outside T, one term
    per tree (``terms``), so it is multilinear in the slot lengths. A
    slot's place in the terms decides its role. A bridge lies in every
    spanning tree, so it occurs in no term and its length only spends
    vertex budget (``bridge_idx``). Every other slot occurs in some term
    (``cycle_idx``, the cycle slots); a loop lies in no tree and occurs in
    every term.

    Lengths are admissible when the subdivision is simple: loops have
    length >= 3, and at most one slot of a parallel class (slots joining
    the same two vertices) has length 1. A bridge lies on no cycle, so it
    is in no parallel class and every length >= 1 is admissible.

    Built once per skeleton and process by ``_sweep_of``, so every query
    reuses the terms, the slot split, the minimal lengths and, once some
    query has hits, the automorphisms: those of the skeleton's residue
    that keep its loop counts, closed by graph_core.automorphisms from the
    ones canonical_form's search meets. Missing ones could only keep
    duplicate witnesses, never drop a class, so no verdict depends on them.

    Witnesses are deduplicated without canonical forms (``orbit_least``).
    Suppressing the degree-2 vertices of a subdivision is canonical, so
    isomorphic subdivisions come from the same skeleton and differ by a
    skeleton automorphism together with a bijection inside each cell (a
    parallel class or the loops at one vertex). Every member of such an
    orbit is a hit, and the hits are sorted, so the orbit's
    lexicographically least member is its first hit, the one a canonical
    dedup keeps. It is the hit that no automorphism maps to a smaller
    vector, where the image puts each cell's lengths, sorted ascending,
    onto the image cell's slots. Different skeletons never give isomorphic
    subdivisions, and no subdivision is a cycle, so nothing else can
    repeat a witness.
    """

    def __init__(self, skeleton: Skeleton):
        self.skeleton = skeleton
        self.slots = list(skeleton.slots)
        self.terms = tree_terms(skeleton)
        # cell -> indices of its slots
        self.cells: dict[tuple[int, int], list[int]] = {}
        for i, cell in enumerate(self.slots):
            self.cells.setdefault(cell, []).append(i)
        self.parallel_classes = {
            cell: idxs for cell, idxs in self.cells.items() if cell[0] != cell[1] and len(idxs) > 1
        }
        in_terms = {i for term in self.terms for i in term}
        self.cycle_idx = [i for i in range(len(self.slots)) if i in in_terms]
        self.bridge_idx = [i for i in range(len(self.slots)) if i not in in_terms]
        # floors bound every admissible length from below, also where a
        # parallel class needs 2; suffix_extra[j] is the vertex cost of
        # cycle slots j, j+1, ... at their floors
        self.floors = [3 if a == b else 1 for a, b in self.slots]
        self.suffix_extra = [0] * (len(self.cycle_idx) + 1)
        for j in range(len(self.cycle_idx) - 1, -1, -1):
            self.suffix_extra[j] = self.suffix_extra[j + 1] + self.floors[self.cycle_idx[j]] - 1
        # mins is the componentwise least admissible (simple) assignment:
        # the first slot of a parallel class may have length 1, the others 2
        self.mins = list(self.floors)
        for idxs in self.parallel_classes.values():
            for i in idxs[1:]:
                self.mins[i] = 2
        self._automorphisms: list[tuple[int, ...]] | None = None

    def tau(self, lengths: Sequence[int]) -> TreeCount:
        return eval_terms(self.terms, lengths)

    def min_tau(self) -> TreeCount:
        return self.tau(self.mins)

    def min_vertices(self) -> int:
        return self.skeleton.vertex_count + sum(l - 1 for l in self.mins)

    def build(self, lengths: Sequence[int]) -> Multigraph:
        return subdivision(self.skeleton, lengths)

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Vertex permutations of the skeleton that keep the slot count of
        every cell, loops included: the automorphisms of its residue that
        keep the loop counts. Computed on first use and cached."""
        if self._automorphisms is None:
            self._automorphisms = automorphisms(*self.skeleton.residue())
        return self._automorphisms

    def orbit_least(self, hits: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The hits that no automorphism maps to a lexicographically smaller
        vector. The image under sigma puts cell C's lengths, sorted
        ascending, onto the slots of cell sigma(C) in index order."""
        if not hits:
            return []
        cells = self.cells
        moves = []
        for sigma in self.automorphisms():
            move = []
            for (a, b), idxs in cells.items():
                x, y = sigma[a], sigma[b]
                move.append((idxs, cells[(x, y) if x <= y else (y, x)]))
            moves.append(move)
        kept = []
        image = [0] * len(self.slots)
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

    def find_assignments(
        self, n: int, vertex_budget: int
    ) -> tuple[int, list[tuple[int, ...]]]:
        """All admissible length vectors with count exactly n and strictly
        fewer than vertex_budget vertices, in lexicographic order. Returns
        (tried, hits).

        ``tried`` is the number of admissible vectors within the budget
        whose count is at most n. The count and the vertex total are both
        nondecreasing in every length, so this is a property of the set,
        not of the order or the pruning that finds it.

        The cycle slots are enumerated in slot order. At cycle slot i, with
        the earlier ones fixed and the later ones at their floors, the
        count is A*l + B, with A >= 1 because i occurs in some term. Raising
        a later slot only raises the count, so l > (n - B) // A leaves every
        completion above n: the bound costs one pass over the terms and no
        count per l. The vertex budget, with the later slots at their
        floors, gives the other end. At the last cycle slot A*l + B is the
        count itself. Bridges are never walked: a vector of cycle lengths
        with count <= n and R spare vertices extends by exactly
        C(R + b, b) bridge vectors (b bridges of lengths 1 + r_k with
        sum r_k <= R), all added to ``tried``; when its count is n each of
        them is a hit. Bridge slots sit between cycle slots, so the hits
        are sorted at the end.
        """
        floors = self.floors
        cyc = self.cycle_idx
        m = len(cyc)
        suffix_extra = self.suffix_extra
        max_extra = vertex_budget - 1 - self.skeleton.vertex_count
        if max_extra < suffix_extra[0]:
            return 0, []
        bridges = self.bridge_idx
        nb = len(bridges)
        lengths = floors[:]
        tried = 0
        hits: list[tuple[int, ...]] = []

        def fill_bridges(k: int, spare: int) -> None:
            if k == nb:
                hits.append(tuple(lengths))
                return
            s = bridges[k]
            for l in range(1, spare + 2):
                lengths[s] = l
                fill_bridges(k + 1, spare - (l - 1))
            lengths[s] = 1

        def assign(j: int, extra: int, ones_used: set[tuple[int, int]]) -> None:
            nonlocal tried
            i = cyc[j]
            # the terms holding i give the slope of the count in l_i, the
            # others its intercept
            slope = base = 0
            for term in self.terms:
                prod = 1
                holds = False
                for t in term:
                    if t == i:
                        holds = True
                    else:
                        prod *= lengths[t]
                if holds:
                    slope += prod
                else:
                    base += prod
            cell = self.slots[i]
            parallel = cell in self.parallel_classes
            lo = 2 if parallel and cell in ones_used else floors[i]
            hi = min(max_extra - extra - suffix_extra[j + 1] + 1, (n - base) // slope)
            if j == m - 1:
                for l in range(lo, hi + 1):
                    spare = max_extra - extra - (l - 1)
                    tried += comb(spare + nb, nb)
                    if slope * l + base == n:
                        lengths[i] = l
                        fill_bridges(0, spare)
                lengths[i] = floors[i]
                return
            for l in range(lo, hi + 1):
                lengths[i] = l
                used_one = l == 1 and parallel
                if used_one:
                    ones_used.add(cell)
                assign(j + 1, extra + (l - 1), ones_used)
                if used_one:
                    ones_used.discard(cell)
            lengths[i] = floors[i]

        assign(0, 0, set())
        hits.sort()
        return tried, hits


@lru_cache(maxsize=None)
def _sweep_of(skeleton: Skeleton) -> _Sweep:
    return _Sweep(skeleton)


def _graph_dict(g: Multigraph) -> dict:
    return {"vertices": g.vertex_count, "edges": list(g.edges)}


@dataclass
class FixedPointReport:
    n: int
    vertex_budget: int
    proved: bool
    witnesses: list[Multigraph]
    cycle_case: str
    levels: list[dict]
    stop_reason: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "vertex_budget": self.vertex_budget,
            "proved": self.proved,
            "witnesses": [_graph_dict(g) for g in self.witnesses],
            "reduction": (
                "a witness below budget may be assumed to have minimum degree 2 "
                "(deleting a pendant vertex keeps the tree count); such a graph "
                "is a cycle or a subdivision of a skeleton with min degree 3"
            ),
            "cycle_case": self.cycle_case,
            "levels": self.levels,
            "stop_reason": self.stop_reason,
        }


def verify_no_smaller_graph(
    n: int, vertex_budget: int, max_witnesses: int = WITNESS_CEILING
) -> FixedPointReport:
    """Decide whether some simple graph on fewer than vertex_budget vertices
    has exactly n spanning trees, by exhausting skeleton subdivisions.

    proved=True means no such graph exists; otherwise every witness found
    is listed. The transcript records each skeleton with its minimal count
    and sweep statistics. Raises GraphError, before enumerating anything
    above it, when the proof needs a level above SKELETON_CEILING; the
    minimum count at level 4 is 40, so every n <= 39 stops in time. Raises
    GraphError as soon as the list would hold more than max_witnesses
    classes.
    """
    if n < 3:
        raise GraphError("defined for n >= 3")
    if max_witnesses < 1:
        raise GraphError("max_witnesses must be >= 1")
    witnesses: list[Multigraph] = []

    if 3 <= n < vertex_budget:
        witnesses.append(cycle_graph(n))
        cycle_case = f"the {n}-cycle itself has {n} vertices < budget"
    else:
        cycle_case = (
            f"cycles C_k with k < {vertex_budget} have k != {n} spanning trees; "
            "trees have exactly 1"
        )

    levels: list[dict] = []
    c = 2
    while True:
        if c > SKELETON_CEILING:
            raise GraphError(
                f"n = {n} needs skeletons of cyclomatic number {c}, "
                f"above the enumeration ceiling {SKELETON_CEILING}"
            )
        entries = []
        level_min: TreeCount | None = None
        for skel in enumerate_skeletons(c):
            sweep = _sweep_of(skel)
            mt = sweep.min_tau()
            mv = sweep.min_vertices()
            if level_min is None or mt < level_min:
                level_min = mt
            entry = {
                "skeleton": skel.describe(),
                "cyclomatic": c,
                "min_tau": str(mt),
                "min_vertices": mv,
                "status": "swept",
                "assignments_tried": 0,
                "witnesses": [],
            }
            if mt > n:
                entry["status"] = "pruned_tau"
            elif mv >= vertex_budget:
                entry["status"] = "pruned_budget"
            else:
                tried, hits = sweep.find_assignments(n, vertex_budget)
                entry["assignments_tried"] = tried
                for vec in sweep.orbit_least(hits):
                    if len(witnesses) == max_witnesses:
                        raise GraphError(
                            f"witness ceiling exceeded: {max_witnesses + 1} witness "
                            f"classes so far for n = {n} below budget {vertex_budget}, "
                            f"above max_witnesses {max_witnesses}"
                        )
                    g = sweep.build(vec)
                    entry["witnesses"].append(_graph_dict(g))
                    witnesses.append(g)
            entries.append(entry)
        levels.append({"cyclomatic": c, "min_tau": str(level_min), "skeletons": entries})
        if level_min is not None and level_min > n:
            stop_reason = (
                f"minimum count over cyclomatic number {c} is {level_min} > {n}; "
                "adding an ear raises the count by at least 2, so every higher "
                "level exceeds it as well"
            )
            break
        c += 1

    return FixedPointReport(
        n, vertex_budget, not witnesses, witnesses, cycle_case, levels, stop_reason
    )

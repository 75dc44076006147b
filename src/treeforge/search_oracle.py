"""Exhaustive computation of the extremal functions alpha and beta, and a
skeleton-subdivision verifier for fixed-point claims.

alpha(n) is the least vertex count of a simple graph with exactly n
spanning trees, beta(n) the least edge count. Both searches enumerate one
representative per isomorphism class of connected simple graphs, growing
level by level (a connected graph always has a non-cut vertex, so every
class on k vertices extends one on k-1). One hereditary fact prunes hard:
removing a non-cut vertex never increases the count, so levels only need
classes with count <= n. A minimal witness also never has a bridge, since
contracting a bridge keeps the count while shrinking the graph, but no
level is filtered by it: deleting a vertex can create a bridge, so a
bridgeless class may extend only classes with bridges. Both searches run
one walk over the levels (_search), and an alpha query with n above
Cayley's count budget**(budget-2) of K_budget builds no level.

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
deeper levels only grow. Each level is one cached table (_sweeps): the
sweep of every skeleton, with its least count and vertex total, and the
level's least count, so a query only reads them. A sweep fills its hits
as they are read, and the verifier spends each kept hit's vertex count as
it reads it, so a skeleton whose witnesses cannot fit under the witness
vertex ceiling is read only until they overflow it.

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
The exhaustive search applies the same principle in _level's twin rule:
when swapping two twin vertices of a parent (same neighbours apart from
each other) maps one new vertex's neighbour set onto another, only the
set with the smaller bit mask is built, counted and deduplicated. Its
dedup rejects isomorphs by invariant first and certificate second: a
candidate is filed under its tree count and degree signature, a repeat is
proved by an equal first leaf of canonical_form's search
(graph_core.first_leaf), and canonical forms are computed only in a bucket
where no first leaf matches. The _level docstring gives the arguments that
both keep exactly the classes a canonical dedup keeps. A level rebuilt at
larger caps (a higher count tier or edge cap) decides no candidate twice:
_level keeps, per parent class and neighbour mask of the new vertex,
whether a rule skipped the candidate and otherwise its count, and applies
only the caps afresh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf
from typing import Iterable, Iterator, Sequence

from .graph_core import (
    GraphError,
    Multigraph,
    Skeleton,
    automorphisms,
    canonical_form,
    cycle_graph,
    first_leaf,
    subdivision,
)
from .minimal_builder import Strategy, Witness
from .tree_count import TreeCount, eval_terms, tau_matrix, tree_terms

DEFAULT_VERTEX_CEILING = 9
#: Largest max_edges that beta_exact accepts (see its docstring).
BETA_EDGE_CEILING = 12
#: Largest cyclomatic number whose skeletons verify_no_smaller_graph
#: enumerates. Level 5 is first needed at n = 40 and its least count is 75,
#: so it is read only for that count up to n = 74: every witness there
#: comes from levels 2-4. Its table (_sweeps(5), 1,076 skeletons) is built
#: once per process, in under 1 s (CPython 3.11, 2-vCPU VM).
SKELETON_CEILING = 5
#: The most vertices, summed over the witnesses, that verify_no_smaller_graph
#: lists, the n-cycle included. The list grows with the budget: at n = 27,
#: budgets 27, 40, 60 and 80 give 442, 1,560, 5,524 and 13,388 classes, the
#: last with 802,621 vertices; verify_no_smaller_graph(12, B) lists B - 4
#: classes with about B**2 / 2 vertices, 499,502 at B = 1000.
WITNESS_VERTEX_CEILING = 1_000_000


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


def _adjacency_masks(g: Multigraph) -> list[int]:
    """Entry u is the bit mask of u's neighbours in g."""
    adj = [0] * g.vertex_count
    for a, b, _ in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _heavy_vertices(adj: list[int]) -> list[list[tuple[int, int, tuple[int, ...]]]]:
    """Entry s lists (degree, u, component masks of g - u) for every vertex
    u of g with degree >= s, for s = 0..vertex_count, where adj is g's
    _adjacency_masks."""
    n = len(adj)
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


def _twins(adj: list[int]) -> list[tuple[int, int]]:
    """(bit u | bit w, bit w) for every pair u < w of twins of g, where adj
    is g's _adjacency_masks: u and w have the same neighbours apart from
    each other, so swapping them is an automorphism of g."""
    out = []
    for w in range(len(adj)):
        for u in range(w):
            pair = 1 << u | 1 << w
            if adj[u] & ~pair == adj[w] & ~pair:
                out.append((pair, 1 << w))
    return out


def _signature(adj: list[int], bits: int) -> int:
    """The sorted (degree, sorted neighbour degrees) of every vertex of the
    graph with _adjacency_masks adj plus a new vertex joined to the bit
    mask bits: an isomorphism invariant of that candidate, read off its
    parent's masks. It is packed into one integer, one to one: a vertex's
    row is its degree d followed by its d neighbour degrees in fields of w
    bits (every degree is below 2**w), so it is below 2**((d + 1) * w), and
    the k + 1 rows, sorted, take (k + 1) * w bits each."""
    k = len(adj)
    w = (k + 1).bit_length()
    masks = [a | (bits >> u & 1) << k for u, a in enumerate(adj)]
    masks.append(bits)
    deg = [m.bit_count() for m in masks]
    rows = []
    for u, m in enumerate(masks):
        nd = []
        while m:
            low = m & -m
            nd.append(deg[low.bit_length() - 1])
            m ^= low
        nd.sort()
        row = deg[u]
        for d in nd:
            row = row << w | d
        rows.append(row)
    rows.sort()
    width = (k + 1) * w
    sig = 0
    for row in rows:
        sig = sig << width | row
    return sig


def _new_class(buckets: dict[tuple, list[list]], key: tuple, cand: Multigraph) -> bool:
    """Whether cand starts a new class of its level; if so, it is filed.

    ``buckets`` maps a count and _signature to one resident per class met
    with them, in order of arrival: [graph, first_leaf or None,
    canonical_form or None], each computed when first needed. The _level
    docstring gives the argument.
    """
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = [[cand, None, None]]
        return True
    leaf = first_leaf(cand)
    for resident in bucket:
        if resident[1] is None:
            resident[1] = first_leaf(resident[0])
        if resident[1] == leaf:
            return False
    form = canonical_form(cand)
    for resident in bucket:
        if resident[2] is None:
            resident[2] = canonical_form(resident[0])
        if resident[2] == form:
            return False
    bucket.append([cand, leaf, form])
    return True


def _extend(g: Multigraph, bits: int) -> Multigraph:
    """g plus a new vertex joined to the vertices in the bit mask bits."""
    old = g.vertex_count
    pairs = list(g.edges) + [(v, old, 1) for v in range(old) if bits >> v & 1]
    return Multigraph(old + 1, tuple(sorted(pairs)))


Level = tuple[tuple[Multigraph, TreeCount], ...]

# per vertex count k: every class built at k under any caps, sorted by
# (edge_count, edges), and the level served for each (tau_cap, edge_cap)
_levels: dict[int, tuple[list[tuple[Multigraph, TreeCount]], dict[tuple[float, float], Level]]] = {}
# per parent class G of some level: [bit mask with bit S set for every mask
# S that the twin or the max-degree rule skipped, {S: tau(G + v_S)} for
# every candidate counted]; the _level docstring gives the argument
_verdicts: dict[Multigraph, list] = {}


def clear_level_cache() -> None:
    """Forget every built level and every stored candidate verdict, so the
    next _level call builds cold."""
    _levels.clear()
    _verdicts.clear()


def _level(k: int, tau_cap: int | None, edge_cap: int | None = None) -> Level:
    """Connected simple graph classes on exactly k vertices, with their
    counts. Both restrictions are hereditary under non-cut-vertex deletion
    (the count never grows and edges only disappear), so applying them at
    every level loses no extension. A cap of None means no cap.

    Each class of level k-1 (sorted by (edge_count, edges)) is extended by
    a new vertex v joined to every nonempty subset S of its vertices, in
    order of the subset's bit mask, and a class keeps the first candidate
    that passes both caps. Three tests skip a candidate C = G + v before it
    is built. Each skips C only when an earlier candidate of C's class
    passes the caps whenever C does, so the first candidate of a class
    that passes them is never skipped, and the classes, their
    representatives and their order are the same as without the tests.

    - Count bound: a spanning tree of G plus one edge v-s, s in S, is a
      spanning tree of C, and all these are distinct, so
      tau(C) >= |S| * tau(G). Above tau_cap the candidate fails the cap.
    - Twin rule: skip C when G has twins u < w (the same neighbours apart
      from each other) with w in S and u not in S. The swap (u w) is an
      automorphism of G, so C is isomorphic to G plus a vertex joined to
      S - w + u, a candidate of the same parent with a smaller mask, tried
      first. Both get the same verdict from every test: the caps, the
      count bound and the drop of stored classes read only |S|, tau(G)
      and the class, and the swap carries a vertex that fires the
      max-degree rule on one to a vertex that fires it on the other.
      Twins are found from the adjacency masks at a parent's first
      candidate with no stored verdict (below), so a parent whose
      candidates all fail the caps or the count bound, or all have
      verdicts, does not look for them.
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
    candidates, in the same order, under either pair of caps. The count
    bound drops none of them under either pair (|S| * tau(G) <= tau(C)),
    the twin and max-degree rules do not read the caps, and the caps only
    test class invariants, so X keeps the same first candidate.

    So one store per k holds every class built at k under any caps. A
    request inside caps already served is the store filtered to it.
    Otherwise a candidate inside some served caps is dropped after its
    count and before the dedup, since its class is stored; only the other
    classes are built, merged into the store and sorted. A level does not
    depend on which levels were built before it.

    Each (G, S) is decided once per process (_verdicts, emptied by
    clear_level_cache). Per parent class G the twin and max-degree rules'
    skips are kept as one bit mask over S, and every count in a dict from
    S to tau(G + v_S). Both are pure functions of (G, S): the rules read
    only G's adjacency and S, the count only the candidate, and G is the
    class's representative, the same whichever caps built it. An extension
    applies the caps, the count bound and the served test afresh to every
    mask, in mask order, and reads a stored verdict before any other work.
    Only a mask with no verdict builds the parent's masks, heavy vertices
    and twins (at most once per parent and extension), runs the rules and
    counts the candidate, which is built only to be counted or to reach the
    dedup. Every mask thus gets the verdict it would get without the memo,
    so the classes, their representatives and their order are unchanged
    and a level still does not depend on which levels were built before
    it. The memo holds at most one entry per mask tested within the caps.
    In a traced exhaustive_search pass tau_matrix runs 2,792 times instead
    of 4,943, and no candidate is counted twice.

    The dedup (_new_class) keys no candidate by canonical_form. It files
    each surviving candidate under its count and _signature (the sorted
    degree and sorted neighbour degrees of every vertex, read off the
    parent's adjacency masks and the new vertex's mask), both isomorphism
    invariants, so every candidate of a class lands in one bucket, which
    holds one resident per class: its first arrival. A candidate alone in
    its bucket is a new class, with no certificate computed. Otherwise it
    repeats a resident with an equal first_leaf, the relabelled edge list
    at the first leaf of canonical_form's search: both are relabellings of
    one graph, so equal leaves prove isomorphism. Unequal leaves prove
    nothing, so when none is equal canonical_form decides against every
    resident, and equal keys mean exactly isomorphic. Classes are merged
    only on a proof of isomorphism, and an isomorphic pair is never kept
    apart, so the classes, their representatives and their order are
    those of keying every candidate by canonical_form. In a traced
    exhaustive_search pass first leaves prove all 1,148 repeats, and
    canonical_form runs 8 times instead of 2,445.

    McKay's full canonical-deletion test would skip more, but it needs a
    canonical labelling of every surviving child, which this dedup almost
    never computes, and it changes which (G, S) yields each class and with
    it the witness edge lists.
    """
    if k < 1:
        return ()
    if k == 1:
        return ((Multigraph(1, ()), 1),)
    caps = (inf if tau_cap is None else tau_cap, inf if edge_cap is None else edge_cap)
    tau_cap, edge_cap = caps
    store, served = _levels.setdefault(k, ([], {}))
    if caps in served:
        return served[caps]
    if not any(tau_cap <= tc and edge_cap <= ec for tc, ec in served):
        new: list[tuple[Multigraph, TreeCount]] = []
        buckets: dict[tuple, list[list]] = {}
        old = k - 1
        for g, tau_g in _level(old, tau_cap, edge_cap):
            skipped, counts = verdicts = _verdicts.setdefault(g, [0, {}])
            m = len(g.edges)
            adj = heavy = None  # built at the first mask that needs them
            for bits in range(1, 1 << old):
                s = bits.bit_count()
                # g is simple, so the candidate has one edge per pair
                e = m + s
                if e > edge_cap or s * tau_g > tau_cap or skipped >> bits & 1:
                    continue
                t = counts.get(bits)
                cand = None
                if t is None:
                    if heavy is None:
                        if adj is None:
                            adj = _adjacency_masks(g)
                        heavy, twins = _heavy_vertices(adj), _twins(adj)
                    if any(bits & pair == w for pair, w in twins) or any(
                        (d > s or bits >> u & 1) and all(bits & c for c in comps)
                        for d, u, comps in heavy[s]
                    ):
                        skipped |= 1 << bits
                        continue
                    cand = _extend(g, bits)
                    # cheaper than deduplicating, so filter first
                    t = counts[bits] = tau_matrix(cand)
                if t > tau_cap or any(t <= tc and e <= ec for tc, ec in served):
                    continue  # over the cap, or its class is stored
                if adj is None:
                    adj = _adjacency_masks(g)
                if cand is None:
                    cand = _extend(g, bits)
                if _new_class(buckets, (t, _signature(adj, bits)), cand):
                    new.append((cand, t))
            verdicts[0] = skipped
        store += new
        store.sort(key=lambda item: (len(item[0].edges), item[0].edges))
    served[caps] = level = tuple(
        item for item in store if item[1] <= tau_cap and len(item[0].edges) <= edge_cap
    )
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


def _search(n: int, kind: SearchKind, budget: int, edge_cap: int | None) -> SearchResult:
    """The walk of alpha_exact and beta_exact over levels 1..budget, under
    n's count tier and edge_cap. A level's first graph with n trees has the
    fewest edges of its hits (_level sorts by edge count), and is kept when
    it has fewer than the best so far; alpha stops at its first hit. An
    alpha query with n above budget**(budget-2) builds no level: every
    simple graph on k vertices lies inside K_k, with k**(k-2) trees."""
    cap = _cap_tier(n)
    levels: dict[str, int] = {}
    best: Multigraph | None = None
    alpha = kind is SearchKind.ALPHA
    if not alpha or n <= budget ** max(budget - 2, 0):
        for k in range(1, budget + 1):
            level = _level(k, cap, edge_cap)
            levels[str(k)] = len(level)
            for g, t in level:
                if t == n:
                    if best is None or g.edge_count < best.edge_count:
                        best = g
                    break
            if alpha and best is not None:
                break
    space = {
        "kind": kind.value,
        "budget": budget,
        "filter": f"connected simple graphs, tree count <= {cap} "
        "(hereditary under non-cut-vertex deletion), one per isomorphism class",
        "classes_per_level": levels,
    }
    if best is None:
        return SearchResult(n, kind, None, None, space)
    w = Witness(best, n, best.vertex_count, best.edge_count, Strategy.SEARCH)
    return SearchResult(n, kind, w.vertices if alpha else w.edges, w, space)


def alpha_exact(n: int, max_vertices: int = 8) -> SearchResult:
    """Smallest vertex count <= max_vertices realizing exactly n trees.

    max_vertices may not exceed DEFAULT_VERTEX_CEILING, as in
    enumerate_connected_graphs: the classes grow super-exponentially (853
    connected graphs on 7 vertices, 11,117 on 8, 261,080 on 9), so a
    larger value starts a search that does not end in practice.
    """
    if n < 3:
        raise GraphError("alpha is defined for n >= 3")
    if max_vertices < 1:
        raise GraphError("max_vertices must be >= 1")
    if max_vertices > DEFAULT_VERTEX_CEILING:
        raise GraphError(
            f"search ceiling exceeded: max_vertices {max_vertices} > {DEFAULT_VERTEX_CEILING}"
        )
    return _search(n, SearchKind.ALPHA, max_vertices, None)


def beta_exact(n: int, max_edges: int) -> SearchResult:
    """Smallest edge count <= max_edges realizing exactly n trees.

    A graph with a cycle has at least as many edges as vertices, so levels
    up to max_edges vertices exhaust every candidate.

    max_edges may not exceed BETA_EDGE_CEILING: beta_exact(13, E) for
    E = 9, 10, 11, 12 took 0.13, 0.48, 1.9 and 7.6 s of CPU time on a
    2-vCPU Xeon VM (CPython 3.11, cold levels), about 4x per extra edge.
    """
    if n < 3:
        raise GraphError("beta is defined for n >= 3")
    if max_edges < 1:
        raise GraphError("max_edges must be >= 1")
    if max_edges > BETA_EDGE_CEILING:
        raise GraphError(
            f"search ceiling exceeded: max_edges {max_edges} > {BETA_EDGE_CEILING}"
        )
    return _search(n, SearchKind.BETA, max_edges, max_edges)


# ---------------------------------------------------------------------------
# skeletons: connected multigraphs with loops, min degree >= 3


def _transposition_sources(
    v: int, cells: list[tuple[int, int]]
) -> list[tuple[tuple[int, int], ...]]:
    """For each vertex transposition (a b), a < b, the cells it moves, as
    (position, source) pairs in ascending position order: the count at
    position comes from the source cell when the counts are permuted by
    it. A transposition swaps its moved cells in pairs, so only the pair
    with position < source is listed: the mirror pair at the source
    position compares the same two counts, later, and ties whenever it is
    reached. A cell the transposition fixes compares equal to its own
    image, so it is left out too."""
    index = {cell: k for k, cell in enumerate(cells)}
    out = []
    for a in range(v):
        for b in range(a + 1, v):
            swap = {a: b, b: a}
            moved = []
            for p, (i, j) in enumerate(cells):
                x, y = swap.get(i, i), swap.get(j, j)
                s = index[(x, y) if x <= y else (y, x)]
                if s > p:
                    moved.append((p, s))
            out.append(tuple(moved))
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

    The comparisons are made incrementally, and cut exactly the nodes that
    comparing every prefix afresh would cut. Only the cells a transposition
    moves can differ from their images, and of each swapped pair only the
    first (_transposition_sources): a pair (p, s), p < s, compares the
    image counts[s] with counts[p] once cell s is fixed. A node's fixed
    prefix extends its parent's, and the fixed counts never change below
    it, so ``advance`` resumes each transposition at the pair where the
    parent's comparison stopped. ``live`` holds the transpositions still
    tied, each with that pending pair. One that resolves larger, or whose
    pairs all tie, can never cut a node below, so it leaves ``live`` for
    the whole subtree; one that resolves smaller cuts the node. A pending
    pair (p, idx), idx the cell being placed, is the first comparison each
    child makes for its transposition, and with count m at idx it cuts the
    child exactly when m < counts[p]. So the children are tried from the
    largest such counts[p] up, and those skipped are exactly children that
    the comparison would cut. (A pending pair cannot have its position at
    idx and its source below: its mirror, which comes first, would be
    pending instead, so there is no matching upper bound.)

    The degree cuts remove the same subtrees as testing every node.
    ``deficit``, the sum of max(0, 3 - deg) over the vertices, is carried
    down rather than summed at each node. A node whose deficit exceeds
    twice its remaining slots has no leaf of minimum degree 3 (at a leaf:
    a deficit above 0), and the parent tests this before the call. Count m
    at the cell lowers the deficit by at most 2m and the remaining slots
    by m, so the child's excess, deficit - 2 * remaining, never falls as m
    grows, and the first child over it ends the loop. The root is never
    over, since 3v <= 2(v + cyclomatic - 1). Cells are sorted, so once the
    block of cells (i, *) is entered, at cell (i, i), no vertex below i
    gains degree. Testing only vertex i - 1 at that entry suffices: every
    node of the block lies below the entry, and the vertices below i - 1
    were tested at the entries of earlier blocks.
    """
    if cyclomatic < 2:
        raise GraphError("skeletons here have cyclomatic number >= 2")
    found: dict[bytes, Skeleton] = {}
    for v in range(1, 2 * (cyclomatic - 1) + 1):
        e = v + cyclomatic - 1
        cells = [(i, j) for i in range(v) for j in range(i, v)]  # sorted
        ncells = len(cells)
        counts = [0] * ncells
        deg = [0] * v

        def advance(fixed: int, live: list) -> list | None:
            """The transpositions of live still tied on the first ``fixed``
            counts, each with its pending pair, or None when one maps them
            to a smaller prefix."""
            out = []
            for moved, k in live:
                p, s = moved[k]
                while s < fixed:
                    a, b = counts[s], counts[p]
                    if a != b:
                        if a < b:
                            return None
                        break
                    k += 1
                    if k == len(moved):
                        break
                    p, s = moved[k]
                else:
                    out.append((moved, k))
            return out

        def place(idx: int, remaining: int, deficit: int, live: list) -> None:
            if remaining == 0:
                if advance(ncells, live) is None:
                    return
                slots = []
                for cell, m in zip(cells, counts):
                    slots += [cell] * m
                skel = Skeleton(v, tuple(slots))
                residue, loops = skel.residue()
                if residue.is_connected():
                    found.setdefault(canonical_form(residue, colors=loops), skel)
                return
            if idx == ncells:
                return
            i, j = cells[idx]
            if i == j and i and deg[i - 1] < 3:
                return
            live = advance(idx, live)
            if live is None:
                return
            lo = 0
            for moved, k in live:
                p, s = moved[k]
                if s == idx and counts[p] > lo:
                    lo = counts[p]
            # m loops (i == j) add 2m to deg[i]: both increments below land there
            gain = 2 if i == j else 1
            need_i = max(0, 3 - deg[i])
            need_j = 0 if i == j else max(0, 3 - deg[j])
            for m in range(lo, remaining + 1):
                left = deficit - min(need_i, gain * m) - min(need_j, m)
                if left > 2 * (remaining - m):
                    break
                counts[idx] = m
                deg[i] += m
                deg[j] += m
                place(idx + 1, remaining - m, left, live)
                deg[i] -= m
                deg[j] -= m
            counts[idx] = 0

        place(0, e, 3 * v, [(moved, 0) for moved in _transposition_sources(v, cells)])
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

    Built once per skeleton and process, in the level table ``_sweeps``,
    so every query reuses the terms, the slot split, the minimal lengths,
    the least count and vertex total (``min_tau``, ``min_vertices``) and,
    once some query has hits, the slot map of each automorphism: the
    automorphisms are those of the skeleton's residue that keep its loop counts, closed by
    graph_core.automorphisms from the ones canonical_form's search meets.
    Missing ones could only keep duplicate witnesses, never drop a class,
    so no verdict depends on them.

    Witnesses are deduplicated without canonical forms (``orbit_least``).
    Suppressing the degree-2 vertices of a subdivision is canonical, so
    isomorphic subdivisions come from the same skeleton and differ by a
    skeleton automorphism together with a bijection inside each cell (a
    parallel class or the loops at one vertex). Every member of such an
    orbit is a hit, so a canonical dedup of the sorted hits keeps the
    orbit's lexicographically least member. It is the hit that no
    automorphism maps to a smaller vector, where the image puts each cell's lengths, sorted ascending,
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
        self.min_tau = self.tau(self.mins)
        self.min_vertices = skeleton.vertex_count + sum(l - 1 for l in self.mins)
        self._maps: list[list[int]] | None = None

    def tau(self, lengths: Sequence[int]) -> TreeCount:
        return eval_terms(self.terms, lengths)

    def _slot_maps(self) -> list[list[int]]:
        """Per automorphism sigma, where each slot's image length comes
        from, as an index into the concatenation of every cell's sorted
        lengths (cells in ``cells`` order): the slots of cell sigma(C), in
        index order, get the lengths of cell C in ascending order. The
        automorphisms are the vertex permutations of the skeleton that keep
        the slot count of every cell, loops included: those of its residue
        that keep the loop counts. Computed on first use and cached."""
        if self._maps is None:
            offsets, start = {}, 0
            for cell, idxs in self.cells.items():
                offsets[cell] = start
                start += len(idxs)
            self._maps = []
            for sigma in automorphisms(*self.skeleton.residue()):
                source = [0] * len(self.slots)
                for (a, b), first in offsets.items():
                    x, y = sigma[a], sigma[b]
                    for rank, j in enumerate(self.cells[(x, y) if x <= y else (y, x)]):
                        source[j] = first + rank
                self._maps.append(source)
        return self._maps

    def orbit_least(self, hits: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
        """The hits that no automorphism maps to a lexicographically smaller
        vector, in the order they are read. The image under sigma puts cell
        C's lengths, sorted ascending, onto the slots of cell sigma(C) in
        index order.

        Each hit's cells are sorted once and shared by every automorphism,
        whose image is read slot by slot off them (_slot_maps). The image
        is compared with the hit as it is read and the walk stops at the
        first slot where they differ: that slot alone decides the
        lexicographic comparison, so the verdict is that of building the
        whole image and comparing it."""
        cell_slots = list(self.cells.values())
        maps = None  # read at the first hit: a sweep with none needs no group
        for vec in hits:
            if maps is None:
                maps = self._slot_maps()
            flat = []
            for idxs in cell_slots:
                flat += sorted([vec[i] for i in idxs])
            for source in maps:
                for j, f in enumerate(source):
                    if flat[f] != vec[j]:
                        break
                else:
                    continue  # the image is the hit itself
                if flat[f] < vec[j]:
                    break
            else:
                yield vec

    def find_assignments(
        self, n: int, vertex_budget: int
    ) -> tuple[int, Iterator[tuple[int, ...]]]:
        """All admissible length vectors with count exactly n and strictly
        fewer than vertex_budget vertices. Returns (tried, hits), where hits
        is an iterator that fills each vector as it is read.

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
        count itself. This pass lists the vectors of cycle lengths with
        count n and adds up ``tried``: a vector of cycle lengths with count
        <= n and R spare vertices extends by exactly C(R + b, b) bridge
        vectors (b bridges of lengths 1 + r_k with sum r_k <= R), and when
        its count is n each of them is a hit.

        Bridges are walked only as the hits are read, so a caller that
        stops reading lists no more of them; their number grows with a
        power of the budget. The hits of one cycle vector come in
        lexicographic order, and cycle vectors in lexicographic order of
        their cycle slots, but bridge slots sit between cycle slots, so
        the whole sequence is not sorted.
        """
        floors = self.floors
        cyc = self.cycle_idx
        m = len(cyc)
        suffix_extra = self.suffix_extra
        max_extra = vertex_budget - 1 - self.skeleton.vertex_count
        bridges = self.bridge_idx
        nb = len(bridges)
        lengths = floors[:]
        tried = 0
        # cycle vectors with count n, each with its spare vertices
        leaves: list[tuple[list[int], int]] = []

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
                        leaves.append((lengths[:], spare))
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

        def fill_bridges() -> Iterator[tuple[int, ...]]:
            # per leaf, the bridge lengths 1 + r_k with sum r_k <= spare in
            # lexicographic order: raise the last bridge that leaves the
            # sum within spare, after resetting every bridge behind it to 1
            for vec, spare in leaves:
                while True:
                    yield tuple(vec)
                    k = nb - 1
                    while k >= 0 and spare == 0:
                        spare += vec[bridges[k]] - 1
                        vec[bridges[k]] = 1
                        k -= 1
                    if k < 0:
                        break
                    vec[bridges[k]] += 1
                    spare -= 1

        return tried, fill_bridges()


@lru_cache(maxsize=None)
def _sweeps(cyclomatic: int) -> tuple[tuple[_Sweep, ...], TreeCount]:
    """The _Sweep of every skeleton of enumerate_skeletons(cyclomatic), in
    its order, and the least min_tau among them: the level's table, built
    once per process."""
    sweeps = tuple(_Sweep(skel) for skel in enumerate_skeletons(cyclomatic))
    return sweeps, min(sweep.min_tau for sweep in sweeps)


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


def verify_no_smaller_graph(n: int, vertex_budget: int) -> FixedPointReport:
    """Decide whether some simple graph on fewer than vertex_budget vertices
    has exactly n spanning trees, by exhausting skeleton subdivisions.

    proved=True means no such graph exists; otherwise every witness found
    is listed. The transcript records each skeleton with its minimal count
    and sweep statistics. Raises GraphError, before enumerating anything
    above it, when the proof needs a level above SKELETON_CEILING; the
    minimum count at level 5 is 75, so every n <= 74 stops in time.

    The witnesses may hold at most WITNESS_VERTEX_CEILING vertices in all.
    The room left starts at the ceiling, less the n-cycle when it is a
    witness, and each swept skeleton's hits are read one at a time: every
    vector orbit_least keeps spends its vertex count at once, and GraphError
    is raised as soon as the room runs out, before any witness graph of
    that skeleton is built, so hits past that point are never listed. A
    skeleton that fits has its kept vectors sorted, in the order a
    canonical dedup of the sorted hits keeps them, and built.
    """
    if n < 3:
        raise GraphError("defined for n >= 3")
    if vertex_budget < 1:
        raise GraphError("vertex_budget must be >= 1")
    witnesses: list[Multigraph] = []

    if 3 <= n < vertex_budget:
        witnesses.append(cycle_graph(n))
        cycle_case = f"the {n}-cycle itself has {n} vertices < budget"
    else:
        cycle_case = (
            f"cycles C_k with k < {vertex_budget} have k != {n} spanning trees; "
            "trees have exactly 1"
        )

    room = WITNESS_VERTEX_CEILING - sum(g.vertex_count for g in witnesses)
    levels: list[dict] = []
    c = 2
    while True:
        if c > SKELETON_CEILING:
            raise GraphError(
                f"n = {n} needs skeletons of cyclomatic number {c}, "
                f"above the enumeration ceiling {SKELETON_CEILING}"
            )
        sweeps, level_min = _sweeps(c)
        entries = []
        for sweep in sweeps:
            entry = {
                "skeleton": sweep.skeleton.describe(),
                "cyclomatic": c,
                "min_tau": str(sweep.min_tau),
                "min_vertices": sweep.min_vertices,
                "status": "swept",
                "assignments_tried": 0,
                "witnesses": [],
            }
            if sweep.min_tau > n:
                entry["status"] = "pruned_tau"
            elif sweep.min_vertices >= vertex_budget:
                entry["status"] = "pruned_budget"
            else:
                tried, hits = sweep.find_assignments(n, vertex_budget)
                # a subdivision adds l - 1 vertices on a slot of length l
                base = sweep.skeleton.vertex_count - len(sweep.slots)
                kept = []
                for vec in sweep.orbit_least(hits):
                    room -= base + sum(vec)
                    if room < 0:
                        raise GraphError(
                            f"witness ceiling exceeded: the witnesses for n = {n} below budget "
                            f"{vertex_budget} hold more than {WITNESS_VERTEX_CEILING} vertices"
                        )
                    kept.append(vec)
                kept.sort()
                entry["assignments_tried"] = tried
                for vec in kept:
                    g = subdivision(sweep.skeleton, vec)
                    entry["witnesses"].append(_graph_dict(g))
                    witnesses.append(g)
            entries.append(entry)
        levels.append({"cyclomatic": c, "min_tau": str(level_min), "skeletons": entries})
        if level_min > n:
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

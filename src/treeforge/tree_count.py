"""Exact spanning-tree counting by two independent methods.

tau_matrix evaluates a Kirchhoff cofactor of the Laplacian in two stages.
First it Kron-reduces the Laplacian: every vertex with at most two live
neighbours is eliminated in closed form (a Schur complement), on pairs that
carry a conductance t/f, a pair of multiplicity m entering as m/1. A pendant
vertex multiplies the count by its t, a vertex with two neighbours becomes
the pair (t1 t2, t1 f2 + f1 t2) between them, pairs joined twice merge into
(t1 f2 + f1 t2, f1 f2), and an isolated vertex while others are live means
the graph is disconnected. This takes O(V) dict work, and trees, cycles,
thetas and bouquets end here. The reduction is tau_matrix's own code, in
Laplacian terms: it calls none of tau_dc's reductions or block split, so
the two methods stay independent checks of each other.

The core left has minimum degree 3. Its least label is deleted as the root,
its rows are P times its Laplacian, P the product of every f in the core,
and the elimination is fraction-free (Bareiss) with P as the sentinel
pivot. By Sylvester's identity every entry is then P times a minor of the
Laplacian, and by the all-minors matrix-tree theorem (Chaiken, 1982) such a
minor is a signed sum over spanning forests of products of t/f, so every
entry is an integer, and the last pivot is the core's count, the sum over
spanning trees T of prod_{e in T} t_e * prod_{e not in T} f_e. Pivots are
chosen symmetrically by exact minimum degree: the next pivot is always a
live row with the fewest nonzero entries. Ties follow chains: after pivot
p, the next pivot is the touched neighbour of p with the smallest new row,
if that row is no longer than p's was (every untouched row is at least
that long); otherwise it is the (row size, label) minimum of a lazy heap. A
row is pushed again only when its size changes, and stale heap entries are
skipped when popped. Rows are rescaled lazily (the per-step factor
pivot/previous_pivot telescopes), so eliminating a pivot with d live
neighbours costs O(d^2) entry updates plus O(d log V) heap work and
touches no other row. When the smallest live row spans every live row, the
live block is complete; from then on the elimination runs densely, as
Bareiss on the upper triangle of a list of lists, if the block has at least
DENSE_TAIL_MIN rows (on smaller ones the dict elimination is faster).
Graphs with fill-in (grids, random graphs) pay about f^3 big-integer steps
for a final complete front of f rows, and dense graphs O(V^3), on integers
no larger than P times the minors of the Laplacian.

tau_dc counts on (t, f)-weighted edges: an edge adds the factor t to a
spanning tree that contains it and f to one that does not, so tau is the sum
over trees T of prod_{e in T} t_e * prod_{e not in T} f_e, and a pair of
multiplicity m enters as (m, 1). Parallel edges merge on insertion into
(t1 f2 + f1 t2, f1 f2). Two local rules, the two-terminal reductions of
network reliability (Colbourn, 1987), then run without recursing: a pendant
vertex gives a factor t, and a vertex with two neighbours a and b becomes
the edge (t1 t2, t1 f2 + f1 t2) between a and b. The core left, of minimum
degree 3, is memoized under its labels and weights, the flat tuple of its
sorted (u, v, t, f) entries, in one table per call that holds at most
DC_CORE_CEILING cores; no canonical form is computed. A core of several
blocks (graph_core's lowpoint DFS, run on these weighted dicts) is their
product; a single block recurses on one edge e as
tau = t_e tau(G / e) + f_e tau(G - e). So trees, cycles, thetas and
bouquets of cycles never recurse, and only the reduced core does.

tau_subdivision evaluates the count for a skeleton whose edges are blown
up into paths: sum over spanning trees T of the skeleton of the product of
the lengths of the slots outside T. The terms come from tree_terms, the one
listing of spanning trees over slots (loops allowed, and in every term),
which the skeleton sweep of search_oracle shares; eval_terms sums their
products. Both take a graph_core.Skeleton, the type graph_core.subdivision
builds from, with lengths given as a sequence in slot order.

The two general-purpose methods are independent implementations and are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Sequence

from .graph_core import GraphError, Multigraph, Skeleton, _blocks, _check_lengths, _find
# Unused here, but perfbench/spans.py patches these attributes when tracing.
from .graph_core import biconnected_components, canonical_form  # noqa: F401

TreeCount = int  # arbitrary precision; counts exceed 64 bits quickly

#: Most labelled cores one tau_dc call may memoize. C_40^2 has 4,803, the
#: 6x6 grid 47,049 (2.6 s), the 4x9 grid 117,594 (4.8 s); the 16x16 grid
#: stops after 5.4 s at 109 MB (median CPU time of 3 runs, 2-vCPU VM).
DC_CORE_CEILING = 1 << 17

#: Kept for the benchmark's traced pass, which reads it: no table holds more.
DEFAULT_MEMO_CAP = DC_CORE_CEILING

#: Least size of a complete live block that tau_matrix finishes as a dense
#: list-of-lists elimination. Smaller complete blocks, such as the last two
#: or three rows of nearly every small graph, eliminate faster as dicts than
#: they copy into lists.
DENSE_TAIL_MIN = 5


def tau_matrix(g: Multigraph) -> TreeCount:
    """Spanning-tree count as a cofactor of the Laplacian.

    Disconnected graphs give 0, the one-vertex graph gives 1. First every
    vertex with at most two live neighbours is Kron-reduced in closed form
    (_kron_reduce), so trees, cycles, thetas and bouquets cost O(V) dict
    work and no elimination. The core left, of minimum degree 3, is
    eliminated by Bareiss on P L, P the product of its f, with P as the
    sentinel pivot (_core_cofactor): every entry is then P times a minor of
    L, an integer, and the last pivot is the count. A core pays exact
    minimum-degree Bareiss, about f^3 steps for a final complete front of f
    rows. The reduction is tau_matrix's own code, in Laplacian terms: it
    calls none of tau_dc's reductions or block split, so the two methods
    stay independent checks of each other.
    """
    n = g.vertex_count
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    if len(g.edges) < n - 1:
        return 0  # fewer adjacent pairs than a spanning tree has edges
    # conductance t/f on each adjacent pair; multiplicity m is m/1
    adj: dict[int, dict[int, tuple[int, int]]] = {v: {} for v in range(n)}
    for u, v, m in g.edges:
        adj[u][v] = adj[v][u] = (m, 1)
    factor = _kron_reduce(adj)
    if not factor or len(adj) == 1:
        return factor
    return factor * _core_cofactor(adj)


def _kron_reduce(adj: dict) -> TreeCount:
    """Schur-complement every vertex with at most two live neighbours out
    of the weighted Laplacian, in place; return the factor taken out, or 0
    if the graph is disconnected.

    With conductances t/f, the count kept is F det, F the product of every
    f and det a cofactor of the Laplacian. Eliminating a pendant vertex
    takes its diagonal t/f out of det and its f out of F: a factor t. A vertex
    with two neighbours adds the conductance c1 c2 / (c1 + c2) between them,
    the pair (t1 t2, t1 f2 + f1 t2), and pairs joined twice add their
    conductances into (t1 f2 + f1 t2, f1 f2); F det is unchanged by both.
    An isolated vertex while others are live means g is disconnected. What
    is left is one vertex, or a core in which every vertex has at least
    three neighbours.
    """
    factor = 1
    todo = [x for x, nb in adj.items() if len(nb) <= 2]
    while todo and len(adj) > 1:
        x = todo.pop()
        nb = adj.get(x)
        if nb is None or len(nb) > 2:
            continue  # eliminated already, or a core vertex
        if not nb:
            return 0
        del adj[x]
        if len(nb) == 1:
            ((a, (t, _)),) = nb.items()
            del adj[a][x]
            factor *= t
            todo.append(a)
            continue
        (a, (t1, f1)), (b, (t2, f2)) = nb.items()
        ra, rb = adj[a], adj[b]
        del ra[x], rb[x]
        t, f = t1 * t2, t1 * f2 + f1 * t2
        old = ra.get(b)
        if old is not None:  # a and b each lose a neighbour
            t, f = t * old[1] + f * old[0], f * old[1]
            todo += (a, b)
        ra[b] = rb[a] = (t, f)
    return factor


def _core_cofactor(adj: dict) -> TreeCount:
    """Count of a reduced core: the last Bareiss pivot of P L, with the
    least label as the deleted root.

    With the sentinel pivots[0] = P, the entries after k steps are the
    order-(k + 1) minors of P L over P^k (Sylvester's identity), that is P
    times minors of L. Each is an integer: a minor of L is a signed sum over
    spanning forests of products of t/f (the all-minors matrix-tree
    theorem, Chaiken 1982), and P holds every f once. Scaling by lcm(f)
    instead would multiply every minor by a growing power of the lcm.
    Pivots are exact minimum degree: the next pivot is the touched neighbour
    of the last one with the smallest new row if that row is no longer than
    the last pivot's, else the shortest row with the lowest label. Once the
    shortest live row spans all live rows, at least DENSE_TAIL_MIN of them,
    the block is finished densely.
    """
    scale = 1
    for u, nb in adj.items():
        for v, (_, f) in nb.items():
            if u < v:
                scale *= f
    root = min(adj)
    rows: dict[int, dict[int, int]] = {v: {} for v in adj if v != root}
    for u, nb in adj.items():
        for v, (t, f) in nb.items():
            if u < v:  # so only u can be the root
                w = t * (scale // f)
                rv = rows[v]
                rv[v] = rv.get(v, 0) + w
                if u != root:
                    ru = rows[u]
                    ru[u] = ru.get(u, 0) + w
                    ru[v] = rv[u] = -w

    pivots = [scale]  # pivots[k] is the Bareiss pivot of step k; pivots[0] is a sentinel
    stage = dict.fromkeys(rows, 0)  # step each row was last brought up to
    # (row size, label) for every live row; entries go stale when a row is
    # eliminated or changes size and are skipped when popped
    heap = [(len(row), v) for v, row in rows.items()]
    heapify(heap)
    chained = None  # label of the neighbour the chain goes on to, if any

    def catch_up(i: int, target: int) -> None:
        num, den = pivots[target], pivots[stage[i]]
        row = rows[i]
        for j in row:
            row[j] = row[j] * num // den
        stage[i] = target

    while rows:
        if chained is None:
            while True:
                size, p = heappop(heap)  # never empty: every live row has a current entry
                prow = rows.get(p)
                if prow is not None and len(prow) == size:
                    break
        else:  # size already holds the length of its row
            p = chained
            prow = rows[p]
        if p not in prow:
            # positive semidefinite: a zero diagonal means the whole row is
            # zero, so the remaining block is singular (g is disconnected)
            return 0
        cur = len(pivots) - 1
        if size >= DENSE_TAIL_MIN and size == len(rows):
            # every live row spans every live row: fold the lazy scaling in
            # and finish the complete block densely
            prev = pivots[cur]
            order = list(rows)
            block = []
            for i in order:
                row, den = rows[i], pivots[stage[i]]
                block.append([row[j] * prev // den for j in order])
            return _dense_bareiss(block, prev)
        if stage[p] != cur:
            catch_up(p, cur)
        del rows[p]
        piv = prow.pop(p)  # prow now holds only the live neighbours of p
        prev = pivots[cur]
        chained = None
        for i in prow:
            if stage[i] != cur:
                catch_up(i, cur)
            row = rows[i]
            before = len(row)
            f = row.pop(p)
            for j, pj in prow.items():
                val = (row.get(j, 0) * piv - f * pj) // prev
                if val:
                    row[j] = val
                else:
                    row.pop(j, None)
            for j in list(row):
                if j not in prow:
                    row[j] = row[j] * piv // prev
            stage[i] = cur + 1
            after = len(row)
            if after != before:
                heappush(heap, (after, i))
            if after <= size:  # no longer than p's row, nor than the last pick
                size = after
                chained = i
        pivots.append(piv)
    return pivots[-1]


def _dense_bareiss(block: list[list[int]], prev: int) -> TreeCount:
    """Last Bareiss pivot of a symmetric positive semidefinite block.

    block holds the Bareiss entries after a step whose pivot was prev, so
    the result is the determinant of the whole matrix. Only the upper
    triangle is updated. A zero pivot means the block is singular.
    """
    m = len(block)
    for k in range(m):
        bk = block[k]
        piv = bk[k]
        if not piv:
            return 0
        for i in range(k + 1, m):
            bi = block[i]
            f = bk[i]
            bi[i:] = [(x * piv - f * y) // prev for x, y in zip(bi[i:], bk[i:])]
        prev = piv
    return prev


# ---------------------------------------------------------------------------
# deletion-contraction

def _join(adj: dict, a: int, b: int, w: tuple[int, int]) -> None:
    """Add the edge a-b of weight w = (t, f), merged with a parallel one."""
    old = adj[a].get(b)
    if old is not None:
        (t1, f1), (t2, f2) = old, w
        w = (t1 * f2 + f1 * t2, f1 * f2)
    adj[a][b] = adj[b][a] = w


def _reduce(adj: dict) -> TreeCount:
    """Apply the pendant and series rules in place until one vertex is left
    or every vertex has three neighbours; return the pendant factor."""
    factor = 1
    todo = [x for x, nb in adj.items() if len(nb) <= 2]
    while todo and len(adj) > 1:
        x = todo.pop()
        nb = adj.get(x)
        if nb is None or len(nb) > 2:
            continue  # removed already, or regained a neighbour
        del adj[x]
        for y in nb:
            del adj[y][x]
            todo.append(y)
        if len(nb) == 1:
            factor *= next(iter(nb.values()))[0]
        else:
            (a, (t1, f1)), (b, (t2, f2)) = nb.items()
            _join(adj, a, b, (t1 * t2, t1 * f2 + f1 * t2))
    return factor


def _tau_dc_core(adj: dict, table: dict) -> TreeCount:
    # adj is connected; it is reduced and then consumed. table maps every
    # core this tau_dc call has met, keyed by its sorted (u, v, t, f)
    # entries in one flat tuple, to its count, or to None while the count is
    # being computed: every core below has fewer vertices or fewer adjacent
    # pairs, so it never meets its own key again.
    factor = _reduce(adj)
    if len(adj) == 1:
        return factor
    key = tuple(
        x for u in sorted(adj) for v, w in sorted(adj[u].items()) if u < v for x in (u, v, *w)
    )
    hit = table.get(key)
    if hit is not None:
        return factor * hit
    if len(table) >= DC_CORE_CEILING:
        raise GraphError(
            f"deletion-contraction needs more than {DC_CORE_CEILING} new memo "
            "entries; use the matrix method"
        )
    table[key] = None

    blocks = _blocks(adj)[1]
    if len(blocks) > 1:
        value = 1
        for block in blocks:
            sub: dict = {}
            for (u, v), w in block.items():
                sub.setdefault(u, {})[v] = w
                sub.setdefault(v, {})[u] = w
            value *= _tau_dc_core(sub, table)
    else:
        # a 2-connected core: G - e stays connected
        u = min(adj)
        v = min(adj[u])
        t, f = adj[u].pop(v)
        del adj[v][u]
        contracted = {x: dict(nb) for x, nb in adj.items()}
        for y, w in contracted.pop(v).items():
            del contracted[y][v]
            _join(contracted, u, y, w)
        value = t * _tau_dc_core(contracted, table) + f * _tau_dc_core(adj, table)

    table[key] = value
    return factor * value


def tau_dc(g: Multigraph) -> TreeCount:
    """Spanning-tree count by deletion-contraction on (t, f)-weighted edges.

    Pendant vertices and vertices with two neighbours reduce away without
    recursing; only the core left recurses. Each call keeps its own memo,
    keyed on each labelled core's sorted (u, v, t, f) entries, so equal
    keys are the same weighted graph, and drops it on return: the result
    and the cost depend on g alone. No canonical form is computed. Running
    out of stack, or meeting more than DC_CORE_CEILING distinct cores,
    raises GraphError.
    """
    n = g.vertex_count
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    if len(g.edges) < n - 1 or not g.is_connected():
        return 0  # checked first, so a huge edgeless header builds nothing
    adj: dict = {x: {} for x in range(n)}
    for u, v, m in g.edges:
        adj[u][v] = adj[v][u] = (m, 1)
    try:
        return _tau_dc_core(adj, {})
    except RecursionError:
        raise GraphError(
            f"deletion-contraction recursion too deep on {n} vertices; use the matrix method"
        ) from None


# ---------------------------------------------------------------------------
# subdivisions


def tree_terms(skeleton: Skeleton) -> list[tuple[int, ...]]:
    """One term per spanning tree of the skeleton: the ascending indices of
    the slots outside the tree.

    A loop (u == v) lies in no tree, so it is in every term. Trees are
    listed in the order of their slot sets, as (vertex_count - 1)-subsets
    of the loopless slots in lexicographic order, each kept when it joins
    all vertices without a cycle. A disconnected skeleton has no term.
    """
    slots = skeleton.slots
    vertex_count = skeleton.vertex_count
    edge_idx = [i for i, (u, v) in enumerate(slots) if u != v]
    terms = []
    for tree in combinations(edge_idx, vertex_count - 1):
        parent = list(range(vertex_count))
        for i in tree:
            u, v = slots[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            inside = set(tree)
            terms.append(tuple(i for i in range(len(slots)) if i not in inside))
    return terms


def eval_terms(terms: Sequence[Sequence[int]], lengths: Sequence[int]) -> TreeCount:
    """Sum over the terms of the product of the lengths they index."""
    total = 0
    for term in terms:
        prod = 1
        for i in term:
            prod *= lengths[i]
        total += prod
    return total


def tau_subdivision(skeleton: Skeleton, lengths: Sequence[int]) -> TreeCount:
    """Spanning trees of the graph where slot i becomes a path of lengths[i].

    Equal to sum over spanning trees T of the skeleton of the product of
    lengths of the slots outside T: each tree of the subdivision omits
    exactly one unit edge from the path of every non-tree slot. Only a
    disconnected skeleton has no spanning tree, and it is rejected.
    """
    _check_lengths(skeleton, lengths)
    terms = tree_terms(skeleton)
    if not terms:
        raise GraphError("skeleton must be connected")
    return eval_terms(terms, lengths)

"""Exact spanning-tree counting by two independent methods.

tau_matrix evaluates a Kirchhoff cofactor of the Laplacian in two stages.
First it Kron-reduces the Laplacian: every vertex with at most two live
neighbours is eliminated in closed form (a Schur complement), on pairs that
carry a conductance t/f, a pair of multiplicity m entering as m/1. A pendant
vertex multiplies the count by its t, a vertex with two neighbours becomes
the pair (t1 t2, t1 f2 + f1 t2) between them, pairs joined twice merge into
(t1 f2 + f1 t2, f1 f2), and an isolated vertex while others are live means
the graph is disconnected. A vertex with two neighbours goes with the whole
maximal chain of such vertices through it: the chain's pairs are composed
in series in one walk, its interior vertices are deleted once each and its
two ends joined once, so the dict surgery is O(chains) and the walk O(V).
Trees, cycles, thetas and bouquets end here. The reduction is tau_matrix's
own code, in Laplacian terms: it calls none of tau_dc's reductions or block
split, so the two methods stay independent checks of each other.

The core left has minimum degree 3. Its least label is deleted as the root,
P is the product of every f in the core, and the count, the sum over
spanning trees T of prod_{e in T} t_e * prod_{e not in T} f_e, is P det L,
L the Laplacian without the root's row and column. By the all-minors matrix-tree
theorem (Chaiken, 1982) a minor of L is a signed sum over spanning forests
of products of t/f, so P times a minor is an integer. The elimination is
multifrontal (Duff & Reid, 1983) and exact. Each element, a connected set
of eliminated vertices, keeps delta = P det L over its vertices and an
integer block over its boundary, the live vertices joined to it: P delta
times minus its contribution to the Schur complement. Both are P times
minors of L or products of two such, so a number of an element carries the
determinant of its own region only, not of every region eliminated so far,
as one fraction-free (Bareiss) elimination of the whole matrix would.
Eliminating a pivot merges it with the elements on it, over its front, and
every division is exact (the recurrences are in _core_cofactor). An element
whose boundary empties closes a component of the core without the root,
and the count is the product of the closed deltas over P^(closed - 1).
Pivots are chosen by exact minimum degree on the rows of the Schur
complement: the next pivot is always a live row with the fewest nonzero
entries. Ties follow chains: after pivot p, the next pivot is the touched
neighbour of p with the smallest new row, if that row is no longer than
p's was (every untouched row is at least that long); otherwise it is the
(row size, label) minimum of a lazy heap. A row is pushed again only when
its size changes, and stale heap entries are skipped when popped. A pivot
whose element has d boundary vertices costs d(d + 1)/2 updates, each two
multiplications and one exact division of big integers, plus O(d log V)
heap work; merging several elements first adds the smaller blocks into the
largest. When the smallest live row spans every live row, the live block is
complete; if it has at least DENSE_TAIL_MIN rows, the elements on it are
folded into it and it is finished by Bareiss on the upper triangle of a
list of lists, whose entries are then exactly those of a whole-matrix
elimination at that point. A core of at least DENSE_TAIL_MIN rows and at
most twice its least degree goes to that dense elimination at once. Graphs
with fill-in (grids, random graphs) pay about f^3 big-integer steps for a
final complete front of f rows, and dense graphs O(V^3).

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

A skeleton whose edges are blown up into paths has as count the sum over
spanning trees T of the skeleton of the product of the lengths of the
slots outside T, and two functions evaluate it. tau_paths is one weighted
count of the skeleton: a slot of length l is the pair (1, l), loops factor
out, and the rest runs through tau_matrix's reduction and elimination. It
gives the skeleton sweep of search_oracle its least counts. tau_subdivision
lists the terms instead, with tree_terms, the one listing of spanning trees
over slots (loops allowed, and in every term), and sums their products
with eval_terms; it shares no code with tau_paths or tau_matrix, so it
checks both. The sweep lists a skeleton's terms only once it sweeps it,
and reads its linear forms off them. All take a graph_core.Skeleton, the
type graph_core.subdivision builds from, with lengths given as a sequence
in slot order.

The two general-purpose methods are independent implementations and are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement as cwr
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

#: Least number of rows tau_matrix hands to the dense list-of-lists
#: elimination: a complete live block, or a whole core of at most twice its
#: least degree rows. The last one or two rows of a core eliminate faster as
#: elements; a floor of 4 makes the small cores of an exhaustive search 15%
#: slower, and one of 1 or 2 changes nothing measurable.
DENSE_TAIL_MIN = 3


def tau_matrix(g: Multigraph) -> TreeCount:
    """Spanning-tree count as a cofactor of the Laplacian.

    Disconnected graphs give 0, the one-vertex graph gives 1. First every
    vertex with at most two live neighbours is Kron-reduced in closed form
    (_kron_reduce), a chain of them at a time, so trees, cycles, thetas and
    bouquets cost O(V) work and no elimination. The core left, of minimum
    degree 3, has count P det L, P the product of its f, and is eliminated
    exactly, front by front, in minimum-degree order (_core_cofactor): each
    number an element keeps is P times a minor of L over its own region, or
    a product of two such. A core pays about f^3 steps for a final complete
    front of f rows. The reduction is tau_matrix's own code, in Laplacian terms: it
    calls none of tau_dc's reductions or block split, so the two methods
    stay independent checks of each other.
    """
    n = g.vertex_count
    if n < 1:
        raise GraphError("graph must have at least one vertex")
    if len(g.edges) < n - 1:
        return 0  # fewer adjacent pairs than a spanning tree has edges
    # conductance t/f on each adjacent pair; multiplicity m is m/1, and
    # every single pair shares one (1, 1)
    adj: dict[int, dict[int, tuple[int, int]]] = {v: {} for v in range(n)}
    for u, v, m in g.edges:
        adj[u][v] = adj[v][u] = (1, 1) if m == 1 else (m, 1)
    return _weighted_count(adj)


def _weighted_count(adj: dict) -> TreeCount:
    """The sum over spanning trees T of prod_{e in T} t_e * prod_{e not in T}
    f_e of the graph whose pairs adj weights (t, f): Kron reduction
    (_kron_reduce), then elimination of the core left (_core_cofactor). adj is
    consumed. tau_matrix and tau_paths count through it."""
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

    A vertex x with two neighbours is eliminated with the maximal chain of
    two-neighbour vertices through it. The chain is walked from x through
    its neighbour a up to a vertex that has not two neighbours, or up to
    x's other neighbour b; then from x through b likewise, or up to the
    first walk's end. Each walk composes the pairs it passes in series and
    deletes each vertex it passes from adj. This is sound because series
    composition is associative (and commutative): eliminating the chain's
    vertices one at a time, in any order, leaves the same pair between its
    ends as composing all of them at once. The ends are then joined once,
    with the parallel merge and re-queue above. If both walks end at the
    same vertex a, the chain is a cycle through a: x hangs at a by two
    parallel pairs, which merge into (t1 f2 + f1 t2, f1 f2), and x is then
    pendant, so the factor is t1 f2 + f1 t2 and a loses two neighbours and
    is queued again. A component that is only a cycle stops the first walk
    at x's other neighbour b, where it closes in the same way. Whatever its
    length, a chain costs at most two deletions and two insertions in the
    ends' rows, plus one deletion from adj per vertex.
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
        pa = pb = x
        # walk from x through a, then from x through b, to the chain's ends
        # a and b; pa and pb are the vertices before them
        ra = adj[a]
        while len(ra) == 2 and a != b:
            for y in ra:
                if y != pa:
                    break
            t, f = ra[y]
            t1, f1 = t1 * t, t1 * f + f1 * t
            del adj[a]
            pa, a = a, y
            ra = adj[a]
        rb = adj[b]
        while len(rb) == 2 and b != a:
            for y in rb:
                if y != pb:
                    break
            t, f = rb[y]
            t2, f2 = t2 * t, t2 * f + f2 * t
            del adj[b]
            pb, b = b, y
            rb = adj[b]
        del ra[pa], rb[pb]
        if a == b:  # a closed chain: a cycle hanging at a, or a whole component
            factor *= t1 * f2 + f1 * t2
            todo.append(a)
            continue
        t, f = t1 * t2, t1 * f2 + f1 * t2
        old = ra.get(b)
        if old is not None:  # a and b each lose a neighbour
            t, f = t * old[1] + f * old[0], f * old[1]
            todo += (a, b)
        ra[b] = rb[a] = (t, f)
    return factor


def _core_cofactor(adj: dict) -> TreeCount:
    """Count of a reduced core: P det L, L its Laplacian with the least
    label deleted as the root and P the product of every f in it.

    The elimination is multifrontal and exact. Each element e, a connected
    set of eliminated vertices, keeps its boundary b (the live vertices
    joined to it) and integers:
      - delta_e = P det L[e, e];
      - the block B_e = -P delta_e L_be L_ee^-1 L_eb over b, packed as the
        upper triangle of b in boundary order, row by row; a vertex that
        joins the boundary is put first.
    Elements are disjoint and not joined to each other, so the Schur
    complement of the live rows is S = L[live] + sum_e B_e / (P delta_e).

    Eliminating p merges p with the r elements whose boundary holds p.
    With D their product of deltas and N = sum_i (D / delta_i) B_i, put
    G = D P L + N on p and its front, which is D P S there. The new
    element has
      - delta' = G_pp / P^r,
      - B'_ij = (G_pp N_ij - G_ip G_jp) / (P^r D),
    by the Schur complement taken through p. Both divisions are exact: a
    minor of L is a signed sum over spanning forests of products of t/f
    (the all-minors matrix-tree theorem, Chaiken 1982), so P times one is
    an integer, and so are delta_e, P times a minor, and B_e, whose (i, j)
    entry is P (P det L[e + i, e + j]) - (P L_ij) delta_e by Schur's
    determinant identity, e + i and e + j being the rows and columns. An element's numbers thus carry its own region's
    determinant only, not those of every region eliminated before it
    (Duff & Reid, ACM TOMS 9, 1983, with integer blocks). With r = 0 the
    element is p alone: delta' = P L_pp and B' = -(P L_ip)(P L_jp). A
    pivot whose element has a boundary of d vertices costs d(d + 1)/2
    updates, each two multiplications and one exact division; merging
    r >= 2 elements first adds each smaller block into the largest,
    scaled.

    An element whose boundary empties is closed: its region is a whole
    component of the core without the root, and det L is the product of
    det L[e, e] over those components. So the count is the product of the
    closed deltas over P^(closed - 1). A delta of 0 is a singular
    principal minor of the positive semidefinite L, so the count is 0: a
    connected set of vertices with an edge leaving it has a nonsingular
    block, so only a component cut off from the root reaches it.

    Pivots are exact minimum degree on the rows of S: the next pivot is
    the touched neighbour of the last one with the smallest new row if
    that row is no longer than the last pivot's, else the shortest row
    with the lowest label. On strips with shuffled labels, lowest-label
    ties open many small elements. The shuffled 3 x 400 grid takes 20 ms
    with chains and 23 ms without, but the prism C_2000 x K_2 0.40 s with
    chains and 0.30 s without, since its many elements merge like a
    balanced tree (CPython 3.11, 2-vCPU VM). Once the shortest live row spans
    all live rows, at least DENSE_TAIL_MIN of them, the block is finished
    densely (_dense_tail). A core of at least DENSE_TAIL_MIN rows and at
    most twice its least degree (with minimum degree 3, at most 7
    vertices) goes to _dense_bareiss at once, as P L with the sentinel P:
    on so few rows the element bookkeeping costs more than it saves.
    """
    scale = 1
    for u, nb in adj.items():
        for v, (_, f) in nb.items():
            if u < v:
                scale *= f
    labels = sorted(adj)
    root = labels[0]
    m = len(labels) - 1
    if DENSE_TAIL_MIN <= m <= 2 * min(map(len, adj.values())):
        pos = {v: a for a, v in enumerate(labels, -1)}  # the root at -1
        block = [[0] * m for _ in range(m)]
        for u, nb in adj.items():
            a = pos[u]
            for v, (t, f) in nb.items():
                if u < v:  # so a < b
                    w = t * (scale // f)
                    b = pos[v]
                    block[b][b] += w
                    if a >= 0:
                        block[a][a] += w
                        block[a][b] = -w
        return _dense_bareiss(block, scale)

    # rows[v]: the entries of P L between v and its live neighbours
    rows: dict[int, dict[int, int]] = {v: {} for v in labels[1:]}
    diagonal = dict.fromkeys(rows, 0)
    for u, nb in adj.items():
        for v, (t, f) in nb.items():
            if u < v:  # so only u can be the root
                w = t * (scale // f)
                diagonal[v] += w
                if u != root:
                    diagonal[u] += w
                    rows[u][v] = rows[v][u] = -w
    # reach[v]: the pattern of v's row of S, v included
    reach = {v: {v, *row} for v, row in rows.items()}
    # elements[key] = [delta, boundary, block], keyed by a label it holds;
    # owner[v]: the keys of the elements whose boundary holds v
    elements: dict[int, list] = {}
    owner: dict[int, set[int]] = {v: set() for v in rows}
    closed = 1  # the product of the deltas of the closed elements
    closed_count = 0

    # (row size, label) for every live row; entries go stale when a row is
    # eliminated or changes size and are skipped when popped
    heap = [(len(row), v) for v, row in reach.items()]
    heapify(heap)
    chained = None  # label of the neighbour the chain goes on to, if any

    while reach:
        if chained is None:
            while True:
                size, p = heappop(heap)  # never empty: every live row has a current entry
                front = reach.get(p)
                if front is not None and len(front) == size:
                    break
        else:  # size already holds the length of its row
            p = chained
            front = reach[p]
        if size >= DENSE_TAIL_MIN and size == len(reach):
            count = _dense_tail(rows, diagonal, elements, scale)
            return count * closed // scale**closed_count
        del reach[p]
        front.discard(p)
        prow = rows.pop(p)
        keys = owner.pop(p)
        if not keys:  # p starts an element
            key = p
            bnd = list(prow)
            g = list(prow.values())
            delta = diagonal.pop(p)
            elements[p] = [delta, bnd, [-ga * gb for ga, gb in cwr(g, 2)]]
            for i in bnd:
                owner[i].add(p)
                del rows[i][p]
        else:
            if len(keys) == 1:
                (key,) = keys
            else:
                key = max(keys, key=lambda k: len(elements[k][1]))
                _merge(key, keys, elements, owner, front, p)
            element = elements[key]
            total, bnd, block = element  # total = D, block = N
            # take p out: g is the column of G at p, in boundary order
            n = len(bnd)
            k = bnd.index(p)
            g = [block[a * (2 * n - a - 1) // 2 + k] for a in range(k)]
            start = k * (2 * n - k + 1) // 2
            gpp = block[start]
            g += block[start + 1 : start + n - k]
            del block[start : start + n - k]
            for a in range(k - 1, -1, -1):
                del block[a * (2 * n - a - 1) // 2 + k]
            del bnd[k]
            if len(bnd) < len(front):  # neighbours of p new to the element
                for i in front.difference(bnd):
                    bnd.insert(0, i)
                    g.insert(0, 0)
                    block[:0] = [0] * len(bnd)
                    owner[i].add(key)
            for i, x in prow.items():
                del rows[i][p]
                g[bnd.index(i)] += total * x
            gpp += total * diagonal.pop(p)
            if not gpp:
                return 0
            lift = scale if len(keys) == 1 else scale ** len(keys)
            den = lift * total
            block[:] = [(gpp * x - ga * gb) // den for x, (ga, gb) in zip(block, cwr(g, 2))]
            delta = element[0] = gpp // lift
        chained = None
        if not front:
            del elements[key]
            closed *= delta
            closed_count += 1
            continue
        for i in front:
            row = reach[i]
            before = len(row)
            row |= front
            row.discard(p)
            after = len(row)
            if after != before:
                heappush(heap, (after, i))
            if after <= size:  # no longer than p's row, nor than the last pick
                size = after
                chained = i
    return closed // scale ** (closed_count - 1)


def _merge(key: int, keys: set[int], elements: dict, owner: dict, front: set, p: int) -> None:
    """Merge the elements under keys, whose boundaries hold p, into the one
    under key. Its boundary grows to p and p's front, which hold all of
    theirs, and it holds D, the product of their deltas, in place of its
    delta, and the block N = sum (D / delta) B."""
    element = elements[key]
    others = [(k, elements.pop(k)) for k in keys if k != key]
    total = element[0]
    for _, (delta, _, _) in others:
        total *= delta
    _, bnd, block = element
    c = total // element[0]
    block[:] = [c * x for x in block]
    element[0] = total
    for i in front.difference(bnd):
        bnd.insert(0, i)
        block[:0] = [0] * len(bnd)
        owner[i].add(key)
    n = len(bnd)
    pos = {v: a for a, v in enumerate(bnd)}
    for other, (delta, obnd, oblock) in others:
        c = total // delta
        for x, (a, b) in zip(oblock, cwr(map(pos.__getitem__, obnd), 2)):
            if a > b:
                a, b = b, a
            block[a * (2 * n - a - 1) // 2 + b] += c * x
        for i in obnd:
            if i != p:
                ov = owner[i]
                ov.discard(other)
                ov.add(key)


def _dense_tail(rows: dict, diagonal: dict, elements: dict, scale: int) -> TreeCount:
    """P det L over the live rows and the r elements that border them.

    With D the product of their deltas, the block G / P^r over the live
    rows, G = D P L + sum (D / delta) B, and the sentinel D / P^(r - 1) are
    the entries and the pivot a fraction-free elimination would hold after
    eliminating those elements' vertices: P times minors of L. So
    _dense_bareiss takes them as they are.
    """
    order = list(rows)
    m = len(order)
    pos = {v: a for a, v in enumerate(order)}
    total = 1
    for delta, _, _ in elements.values():
        total *= delta
    block = []
    for a, v in enumerate(order):
        row = [0] * m
        row[a] = total * diagonal[v]
        for u, x in rows[v].items():
            b = pos[u]
            if b > a:
                row[b] = total * x
        block.append(row)
    for delta, bnd, eblock in elements.values():
        c = total // delta
        for x, (a, b) in zip(eblock, cwr(map(pos.__getitem__, bnd), 2)):
            if a > b:
                a, b = b, a
            block[a][b] += c * x
    lift = scale ** len(elements)
    if lift != 1:
        block = [[x // lift for x in row] for row in block]
    return _dense_bareiss(block, total * scale // lift)


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


def tau_paths(skeleton: Skeleton, lengths: Sequence[int]) -> TreeCount:
    """Spanning trees of the graph where slot i becomes a path of lengths[i],
    as one weighted count of the skeleton itself.

    A path of length l between two vertices is, in the Laplacian, one pair
    of conductance 1/l (Kron reduction of its interior), so the slot enters
    as (t, f) = (1, l) and parallel slots merge as tau_matrix merges pairs:
    the count is the sum over spanning trees T of the skeleton of the
    product of the lengths of the slots outside T. A loop lies in no tree
    and multiplies the count by its length. The lengths are not checked:
    callers pass admissible ones.
    """
    adj: dict[int, dict[int, tuple[int, int]]] = {v: {} for v in range(skeleton.vertex_count)}
    loops = 1
    for (u, v), l in zip(skeleton.slots, lengths):
        if u == v:
            loops *= l
            continue
        old = adj[u].get(v)
        adj[u][v] = adj[v][u] = (1, l) if old is None else (old[0] * l + old[1], old[1] * l)
    return loops * _weighted_count(adj)


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

"""Immutable undirected multigraphs and their edge operations (deletion,
contraction, path attachment, subdivision), canonical labeling and
automorphism groups, and blocks and bridges. The counters of tree_count
work on their own adjacency dicts; of this module they use the block split
(_blocks, which takes such dicts) and the Skeleton type.

Vertices are always labeled 0..n-1. Parallel edges are stored as integer
multiplicities on unordered pairs. Loops are never stored: contraction
discards them on the spot, which keeps the spanning-tree count well defined
without special cases. A Skeleton lists its edges one slot at a time, loops
included, and subdivision turns each slot into a path; its residue, the
loopless multigraph of its slots with each vertex's loop count, is what
its canonical form and its automorphisms are computed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graphs or operations on them."""


@dataclass(frozen=True)
class Multigraph:
    """Undirected loopless multigraph on vertices 0..vertex_count-1.

    ``edges`` holds (u, v, multiplicity) triples with u < v, sorted, one
    triple per adjacent pair, multiplicity >= 1. Instances are immutable;
    every operation returns a new graph, so values can be shared freely
    across threads and memo tables.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...] = ()

    @staticmethod
    def from_edges(vertex_count: int, pairs: Iterable[Sequence[int]]) -> "Multigraph":
        """Build a graph from (u, v) or (u, v, multiplicity) entries.

        Repeated pairs accumulate multiplicity. Loops and out-of-range
        labels are rejected.
        """
        if vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        acc: dict[tuple[int, int], int] = {}
        for entry in pairs:
            if len(entry) == 2:
                u, v = entry
                m = 1
            else:
                u, v, m = entry
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
            if m < 1:
                raise GraphError(f"multiplicity {m} must be >= 1")
            key = (u, v) if u < v else (v, u)
            acc[key] = acc.get(key, 0) + m
        triples = tuple(sorted((u, v, m) for (u, v), m in acc.items()))
        return Multigraph(vertex_count, triples)

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        for a, b, m in self.edges:
            if a == u and b == v:
                return m
        return 0

    @property
    def edge_count(self) -> int:
        """Total edge count, parallel copies included."""
        return sum(m for _, _, m in self.edges)

    def degree(self, v: int) -> int:
        return sum(m for a, b, m in self.edges if a == v or b == v)

    def adjacency(self) -> dict[int, dict[int, int]]:
        """vertex -> {neighbour: multiplicity}, every vertex a key."""
        adj: dict[int, dict[int, int]] = {v: {} for v in range(self.vertex_count)}
        for u, v, m in self.edges:
            adj[u][v] = m
            adj[v][u] = m
        return adj

    def is_connected(self) -> bool:
        n = self.vertex_count
        if n <= 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    def relabeled(self, perm: Sequence[int]) -> "Multigraph":
        """Image under the vertex relabeling v -> perm[v]."""
        return Multigraph.from_edges(
            self.vertex_count, ((perm[u], perm[v], m) for u, v, m in self.edges)
        )

    def __repr__(self) -> str:  # compact, deterministic
        return f"Multigraph({self.vertex_count}, {list(self.edges)!r})"


def is_simple(g: Multigraph) -> bool:
    return all(m == 1 for _, _, m in g.edges)


# ---------------------------------------------------------------------------
# constructors for the standard small families


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise GraphError("cycle needs length >= 3")
    return Multigraph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Multigraph:
    if n < 1:
        raise GraphError("path needs >= 1 vertex")
    return Multigraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Multigraph:
    return Multigraph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


# ---------------------------------------------------------------------------
# edge operations


def delete_edge(g: Multigraph, u: int, v: int) -> Multigraph:
    """Remove one copy of the edge (u, v)."""
    if g.multiplicity(u, v) < 1:
        raise GraphError(f"edge ({u},{v}) not present")
    if u > v:
        u, v = v, u
    triples = []
    for a, b, m in g.edges:
        if (a, b) == (u, v):
            if m > 1:
                triples.append((a, b, m - 1))
        else:
            triples.append((a, b, m))
    return Multigraph(g.vertex_count, tuple(triples))


def contract_edge(g: Multigraph, u: int, v: int) -> Multigraph:
    """Contract the edge (u, v), discarding any loops that arise.

    The merged vertex keeps min(u, v)'s slot and labels above max(u, v)
    shift down by one, so the result is again labeled 0..n-2 and the
    outcome of a contraction sequence is reproducible.
    """
    lo, hi = (u, v) if u < v else (v, u)
    pairs = []
    present = False
    for a, b, m in g.edges:
        if a == lo and b == hi:
            present = True
            continue  # all copies of (u, v) become loops and vanish
        ra = lo if a == hi else (a - 1 if a > hi else a)
        rb = lo if b == hi else (b - 1 if b > hi else b)
        pairs.append((ra, rb, m))
    if not present:
        raise GraphError(f"edge ({u},{v}) not present")
    return Multigraph.from_edges(g.vertex_count - 1, pairs)


def _chain(u: int, v: int, first: int, k: int) -> list[tuple[int, int]]:
    """The k edges of a path from u to v through the fresh vertices first,
    first + 1, ..., first + k - 2 in order."""
    chain = [u, *range(first, first + k - 1), v]
    return list(zip(chain, chain[1:]))


def add_path(g: Multigraph, u: int, v: int, k: int) -> Multigraph:
    """Join u and v by a new internally disjoint path of length k.

    k - 1 fresh vertices are appended after the existing labels. k = 1 is
    plain edge insertion and therefore requires u != v.
    """
    n = g.vertex_count
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError("path endpoints must be existing vertices")
    if k < 1:
        raise GraphError("path length must be >= 1")
    if k == 1 and u == v:
        raise GraphError("loop forbidden: a length-1 path needs distinct endpoints")
    return Multigraph.from_edges(n + k - 1, [*g.edges, *_chain(u, v, n, k)])


@dataclass(frozen=True)
class Skeleton:
    """A multigraph given slot by slot, each slot a pair (u, v) with
    0 <= u <= v < vertex_count; u == v is a loop. A simple graph of minimum
    degree 2 that is not a cycle is a subdivision of exactly one skeleton
    of minimum degree 3 (suppress the degree-2 vertices)."""

    vertex_count: int
    slots: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.slots:
            if not 0 <= u <= v < self.vertex_count:
                raise GraphError(
                    f"slot ({u},{v}) needs 0 <= u <= v < {self.vertex_count}"
                )

    @property
    def cyclomatic(self) -> int:
        return len(self.slots) - self.vertex_count + 1

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.slots)

    def residue(self) -> tuple[Multigraph, list[int]]:
        """The loopless multigraph of the slots and each vertex's loop
        count: the skeleton's symmetry type. Two skeletons are isomorphic
        exactly when their residues are, loop counts taken as colors, and
        a vertex permutation keeps every slot count exactly when it is an
        automorphism of the residue that keeps those colors."""
        loops = [0] * self.vertex_count
        mult: dict[tuple[int, int], int] = {}
        for cell in self.slots:
            if cell[0] == cell[1]:
                loops[cell[0]] += 1
            else:
                mult[cell] = mult.get(cell, 0) + 1
        # slots have u <= v, so the triples need no further check
        triples = tuple(sorted((u, v, m) for (u, v), m in mult.items()))
        return Multigraph(self.vertex_count, triples), loops

    def describe(self) -> str:
        return f"{self.vertex_count} vertices, slots {list(self.slots)}"


def _check_lengths(skeleton: Skeleton, lengths: Sequence[int]) -> None:
    """Raise GraphError unless there is one length >= 1 per slot."""
    if len(lengths) != len(skeleton.slots):
        raise GraphError(
            f"got {len(lengths)} lengths for {len(skeleton.slots)} edge slots"
        )
    if any(l < 1 for l in lengths):
        raise GraphError("subdivision lengths must be >= 1")


def subdivision(skeleton: Skeleton, lengths: Sequence[int]) -> Multigraph:
    """The graph on vertices 0..vertex_count-1 of the skeleton in which
    slot i becomes a path of lengths[i] edges.

    Interior path vertices are numbered from vertex_count on, slot by slot
    in order, so the labeling of every subdivision is reproducible. A loop
    of length 1 is rejected, since Multigraph stores no loops.
    """
    _check_lengths(skeleton, lengths)
    pairs: list[tuple[int, int]] = []
    nxt = skeleton.vertex_count
    for (u, v), k in zip(skeleton.slots, lengths):
        pairs += _chain(u, v, nxt, k)
        nxt += k - 1
    return Multigraph.from_edges(nxt, pairs)


# ---------------------------------------------------------------------------
# canonical form
#
# Exact isomorphism keys by individualization and refinement, with the
# splitter-queue refinement of McKay & Piperno, "Practical graph isomorphism
# II", J. Symb. Comput. 60 (2014).
#
# The ordered partition lives in four arrays: ``lab`` (position -> vertex),
# ``pos`` (vertex -> position), ``cellof`` (vertex -> start position of its
# cell) and ``size`` (cell start -> cell size; entries at other positions
# are stale). Refinement pops a splitter cell W from a queue of cell starts,
# counts for each vertex adjacent to W its edges into W (parallel copies
# included) and splits every cell holding such a vertex by that count. The
# untouched vertices (count 0) keep the cell's start; the touched ones are
# swapped to the cell's tail and ordered by count there, one fragment per
# count. A split therefore costs the degrees in W plus sorting the touched
# vertices, never the size of the split cell, and a long cycle refines in
# linear time. Hopcroft's rule decides what to queue: every fragment if the
# split cell was queued, otherwise all but the (first) largest, whose counts
# follow from the others'.
#
# Which cells split, where each fragment goes and which starts are queued
# depend only on cell starts and counts, never on vertex labels, so the
# refined ordered partition is isomorphism-invariant. The search refines the
# color classes (cells in increasing color order, all queued), then
# individualizes each vertex of the first non-singleton cell in turn: the
# vertex becomes a singleton at the cell's tail, keeps that position in
# every descendant, and only its cell is queued. A discrete partition is a
# labeling; the key is the least sorted relabelled edge list over all
# leaves, with the vertex count and the sorted colors, which fix the color
# of every position.
#
# Two leaves with the same edge list give an automorphism. It fixes every
# vertex individualized on the path the two leaves share and maps the
# explored child of the node where they part onto the current one, so the
# search jumps back to that node, and it joins orbits in the union-find
# each node on that shared path keeps over its target cell. A node skips a
# child in the orbit of an explored one. Besides those union-finds the
# search only lists the automorphisms it meets, which automorphisms()
# closes into the whole group. Symmetric graphs (complete graphs, cycles,
# stars) explore about two children per level.


def _refine_partition(
    nbrs: list[list[tuple[int, int]]],
    lab: list[int],
    pos: list[int],
    cellof: list[int],
    size: list[int],
    queue: list[int],
    queued: list[bool],
    count: list[int],
    cells: int,
) -> int:
    """Refine the ordered partition in place until it is equitable or
    discrete, and return its cell count.

    ``queue`` holds the splitter cell starts, each flagged in ``queued``;
    ``count`` is all zero on entry and on return.
    """
    n = len(lab)
    head = 0
    while head < len(queue) and cells < n:
        w = queue[head]
        head += 1
        queued[w] = False
        hit = []
        for i in range(w, w + size[w]):
            for x, m in nbrs[lab[i]]:
                if not count[x]:
                    hit.append(x)
                count[x] += m
        touched: dict[int, list[int]] = {}
        for x in hit:
            c = cellof[x]
            if size[c] > 1:
                if c in touched:
                    touched[c].append(x)
                else:
                    touched[c] = [x]
        for c in sorted(touched):
            xs = touched[c]
            k = size[c]
            xs.sort(key=count.__getitem__)
            if len(xs) == k and count[xs[0]] == count[xs[-1]]:
                continue
            end = c + k
            p = end
            for x in xs:  # vacate the tail: its vertices move to xs' places
                p -= 1
                i = pos[x]
                y = lab[p]
                lab[i] = y
                pos[y] = i
            frags = [c]
            prev = 0
            for i, x in enumerate(xs, p):
                lab[i] = x
                pos[x] = i
                if count[x] != prev:
                    prev = count[x]
                    if i != c:
                        size[frags[-1]] = i - frags[-1]
                        frags.append(i)
                cellof[x] = frags[-1]
            size[frags[-1]] = end - frags[-1]
            cells += len(frags) - 1
            skip = c if queued[c] else max(frags, key=size.__getitem__)
            for f in frags:
                if f != skip and not queued[f]:
                    queued[f] = True
                    queue.append(f)
        for x in hit:
            count[x] = 0
    for w in queue[head:]:
        queued[w] = False
    return cells


def canonical_form(g: Multigraph, colors: Sequence[int] | None = None) -> bytes:
    """Canonical key: equal byte strings exactly for isomorphic multigraphs.

    Optional ``colors`` restricts isomorphisms to color-preserving maps
    (used e.g. to canonicalize graphs carrying per-vertex attributes).
    Deterministic across runs and platforms.
    """
    return _canonical_search(g, colors)[0]


def automorphisms(g: Multigraph, colors: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Every color-preserving automorphism of g, as the tuple of vertex
    images, in lexicographic order: the closure of the automorphisms that
    canonical_form's search meets. Those met against the first leaf of such
    a search generate the group (McKay, Congr. Numer. 30, 1981); this one
    meets them against the best leaf instead, so that the closure is the
    whole group rests on the tests against brute force over permutations.
    """
    gens = _canonical_search(g, colors)[1]
    identity = tuple(range(g.vertex_count))
    group = {identity}
    todo = [identity]
    while todo:
        a = todo.pop()
        for sigma in gens:
            b = tuple([sigma[x] for x in a])
            if b not in group:
                group.add(b)
                todo.append(b)
    return sorted(group)


def _canonical_search(g: Multigraph, colors: Sequence[int] | None) -> tuple[bytes, list]:
    """canonical_form's key, and the automorphisms its search meets."""
    n = g.vertex_count
    gens: list[list[int]] = []
    if n == 0:
        return b"(0)", gens
    init = list(colors) if colors is not None else [0] * n
    if len(init) != n:
        raise GraphError("colors must assign one value per vertex")
    edges = g.edges
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in edges:
        nbrs[u].append((v, m))
        nbrs[v].append((u, m))
    queued = [False] * n
    count = [0] * n

    lab = sorted(range(n), key=init.__getitem__)
    pos = [0] * n
    cellof = [0] * n
    size = [0] * n
    queue = [0]
    for i, v in enumerate(lab):
        pos[v] = i
        if init[v] != init[lab[queue[-1]]]:
            size[queue[-1]] = i - queue[-1]
            queue.append(i)
        cellof[v] = queue[-1]
    size[queue[-1]] = n - queue[-1]
    for w in queue:
        queued[w] = True
    cells = _refine_partition(nbrs, lab, pos, cellof, size, queue, queued, count, len(queue))

    best: list = [None, lab, ()]  # least edge list, its leaf's lab and path
    orbits: list[dict[int, int]] = []  # union-find over the target cell, per depth

    def search(
        lab: list[int],
        pos: list[int],
        cellof: list[int],
        size: list[int],
        cells: int,
        path: tuple[int, ...],
    ) -> int:
        """Explore the node at ``path``; return the depth to resume at."""
        if cells == n:
            enc = tuple(
                sorted(
                    (pos[u], pos[v], m) if pos[u] < pos[v] else (pos[v], pos[u], m)
                    for u, v, m in edges
                )
            )
            if best[0] is None or enc < best[0]:
                best[:] = enc, lab, path
                return len(path)
            if enc != best[0]:
                return len(path)
            _, best_lab, best_path = best
            sigma = [0] * n
            for a, b in zip(best_lab, lab):
                sigma[a] = b
            gens.append(sigma)
            d = 0
            while path[d] == best_path[d]:
                d += 1
            for parent in orbits[: d + 1]:
                for x in parent:
                    a, b = _find(parent, x), _find(parent, sigma[x])
                    if a != b:
                        parent[a] = b
            return d
        c = 0
        while size[c] == 1:
            c += 1
        k = size[c]
        tail = c + k - 1
        parent = {x: x for x in lab[c : tail + 1]}
        orbits.append(parent)
        explored: list[int] = []
        for v in sorted(parent):
            r = _find(parent, v)
            if any(_find(parent, u) == r for u in explored):
                continue
            explored.append(v)
            clab, cpos, ccell, csize = list(lab), list(pos), list(cellof), list(size)
            i = cpos[v]
            y = clab[tail]
            clab[i] = y
            cpos[y] = i
            clab[tail] = v
            cpos[v] = tail
            ccell[v] = tail
            csize[c] = k - 1
            csize[tail] = 1
            queued[tail] = True
            ccells = _refine_partition(
                nbrs, clab, cpos, ccell, csize, [tail], queued, count, cells + 1
            )
            resume = search(clab, cpos, ccell, csize, ccells, path + (v,))
            if resume < len(path):
                break
        else:
            resume = len(path)
        orbits.pop()
        return resume

    search(lab, pos, cellof, size, cells, ())
    return repr((n, tuple(sorted(init)), best[0])).encode(), gens


def _find(parent: dict[int, int] | list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def are_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# connectivity structure


def _blocks(adj: Mapping[int, Mapping[int, object]]) -> tuple[int, list[dict]]:
    """Connected component count and edge blocks of an adjacency map
    (vertex -> {neighbour: value}), from one lowpoint DFS (Hopcroft &
    Tarjan, CACM 16, 1973) started at every unvisited root.

    Each block maps its pairs (u, v), u < v, to their values in the map:
    multiplicities from Multigraph.adjacency(), (t, f) weights in tau_dc.
    The DFS walks pairs, not copies: a copy parallel to the tree edge (p, x)
    would lower low[x] at most to disc[p], which leaves the block test
    low[x] >= disc[p] as it is. So a bundle stays in one block, and a block
    of multiplicities is a bridge exactly when it is one pair of
    multiplicity 1. Isolated vertices are components without blocks.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    roots = 0
    blocks: list[dict[tuple[int, int], object]] = []
    edge_stack: list[tuple[int, int]] = []
    for root in adj:
        if root in disc:
            continue
        roots += 1
        disc[root] = low[root] = len(disc)
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(adj[root]))]
        while stack:
            x, parent, it = stack[-1]
            for y in it:
                if y not in disc:
                    edge_stack.append((x, y))
                    disc[y] = low[y] = len(disc)
                    stack.append((y, x, iter(adj[y])))
                    break
                if y != parent and disc[y] < disc[x]:  # a back edge
                    edge_stack.append((x, y))
                    low[x] = min(low[x], disc[y])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[x])
                    if low[x] >= disc[p]:  # (p, x) and the edges above it form a block
                        block = {}
                        while True:
                            u, v = edge_stack.pop()
                            block[(u, v) if u < v else (v, u)] = adj[u][v]
                            if u == p and v == x:
                                break
                        blocks.append(block)
    return roots, blocks


def _is_bridge(block: dict[tuple[int, int], int]) -> bool:
    return len(block) == 1 and 1 in block.values()


def is_two_edge_connected(g: Multigraph) -> bool:
    """True iff the graph is connected and has no bridge.

    A parallel pair is never a bridge. Cut vertices are fine: C_{3,3}
    (two triangles sharing a vertex) passes. Raises on disconnected input.
    """
    roots, blocks = _blocks(g.adjacency())
    if roots > 1:
        raise GraphError("graph not connected")
    return not any(map(_is_bridge, blocks))


def bridges(g: Multigraph) -> list[tuple[int, int]]:
    """All bridge pairs (u, v), u < v. Parallel bundles are never bridges."""
    return sorted(next(iter(b)) for b in _blocks(g.adjacency())[1] if _is_bridge(b))


def biconnected_components(g: Multigraph) -> list[Multigraph]:
    """Edge blocks of a connected multigraph, each relabeled compactly.

    The spanning-tree count multiplies over blocks, so counting can
    factor through this decomposition.
    """
    roots, blocks = _blocks(g.adjacency())
    if roots > 1:
        raise GraphError("graph not connected")
    out = []
    for block in blocks:
        verts = sorted({v for pair in block for v in pair})
        index = {v: i for i, v in enumerate(verts)}
        triples = sorted((index[u], index[v], m) for (u, v), m in block.items())
        out.append(Multigraph(len(verts), tuple(triples)))
    return out

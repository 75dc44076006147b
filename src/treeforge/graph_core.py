"""Immutable undirected multigraphs and the edge operations that exact
spanning-tree counting is built on: deletion, contraction, path attachment,
canonical labeling, and 2-edge-connectivity.

Vertices are always labeled 0..n-1. Parallel edges are stored as integer
multiplicities on unordered pairs. Loops are never stored: contraction
discards them on the spot, which keeps the spanning-tree count well defined
without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


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

    @property
    def pair_count(self) -> int:
        """Number of adjacent vertex pairs (parallel bundles count once)."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(m for a, b, m in self.edges if a == v or b == v)

    def adjacency(self) -> list[dict[int, int]]:
        """neighbor -> multiplicity maps, index by vertex."""
        adj: list[dict[int, int]] = [dict() for _ in range(self.vertex_count)]
        for u, v, m in self.edges:
            adj[u][v] = m
            adj[v][u] = m
        return adj

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b, _ in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def slots(self) -> list[tuple[int, int, int]]:
        """Individual edge slots (u, v, copy_index), parallel copies expanded."""
        out = []
        for u, v, m in self.edges:
            out.extend((u, v, i) for i in range(m))
        return out

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


@dataclass(frozen=True)
class SimpleGraphCertificate:
    """Result of checking a multigraph for parallel edges."""

    holds_for: Multigraph
    is_simple: bool


def is_simple(g: Multigraph) -> bool:
    return all(m == 1 for _, _, m in g.edges)


def certify_simple(g: Multigraph) -> SimpleGraphCertificate:
    return SimpleGraphCertificate(g, is_simple(g))


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
    chain = [u] + list(range(n, n + k - 1)) + [v]
    pairs = list(g.edges) + [(chain[i], chain[i + 1], 1) for i in range(k)]
    return Multigraph.from_edges(n + k - 1, pairs)


# ---------------------------------------------------------------------------
# canonical form
#
# Exact isomorphism keys: iterative refinement of a vertex coloring by
# (color, multiset of colored neighbor multiplicities), then backtracking
# individualization over the first non-singleton class. Automorphisms
# discovered when two complete labelings collide are used to prune branches
# that fix the current individualization path, which tames the symmetric
# worst cases (complete graphs, cycles) without a full group machinery.


def _refine(adj: list[dict[int, int]], colors: list[int]) -> list[int]:
    n = len(adj)
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[w], m) for w, m in adj[v].items())))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _encode(g: Multigraph, pos: Sequence[int], colors: Sequence[int]) -> tuple:
    # pos[v] = position of vertex v in the candidate labeling
    rel = sorted(
        (pos[u], pos[v], m) if pos[u] < pos[v] else (pos[v], pos[u], m)
        for u, v, m in g.edges
    )
    by_pos = sorted(range(len(pos)), key=lambda v: pos[v])
    return (g.vertex_count, tuple(colors[v] for v in by_pos), tuple(rel))


_MAX_STORED_AUTOMORPHISMS = 64


def canonical_form(g: Multigraph, colors: Sequence[int] | None = None) -> bytes:
    """Canonical key: equal byte strings exactly for isomorphic multigraphs.

    Optional ``colors`` restricts isomorphisms to color-preserving maps
    (used e.g. to canonicalize graphs carrying per-vertex attributes).
    Deterministic across runs and platforms.
    """
    n = g.vertex_count
    if n == 0:
        return b"(0)"
    adj = g.adjacency()
    init = list(colors) if colors is not None else [0] * n
    if len(init) != n:
        raise GraphError("colors must assign one value per vertex")
    norm = {c: i for i, c in enumerate(sorted(set(init)))}
    init = [norm[c] for c in init]

    best: list[tuple | None] = [None]
    best_vertex_at: list[list[int] | None] = [None]
    autos: list[tuple[int, ...]] = []

    def search(colors: list[int], path: tuple[int, ...]) -> None:
        colors = _refine(adj, colors)
        classes: dict[int, list[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            pos = [0] * n
            by_color = sorted(range(n), key=lambda v: colors[v])
            for i, v in enumerate(by_color):
                pos[v] = i
            enc = _encode(g, pos, init)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best_vertex_at[0] = by_color
            elif enc == best[0] and len(autos) < _MAX_STORED_AUTOMORPHISMS:
                ref = best_vertex_at[0]
                assert ref is not None
                sigma = [0] * n
                for i in range(n):
                    sigma[ref[i]] = by_color[i]
                if sigma != list(range(n)):
                    autos.append(tuple(sigma))
            return

        usable = [s for s in autos if all(s[p] == p for p in path)]
        parent = {v: v for v in target}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        if usable:
            changed = True
            while changed:
                changed = False
                for s in usable:
                    for v in target:
                        w = s[v]
                        if w in parent:
                            a, b = find(v), find(w)
                            if a != b:
                                parent[a] = b
                                changed = True
        seen_roots = set()
        fresh = max(colors) + 1
        for v in target:
            r = find(v)
            if r in seen_roots:
                continue
            seen_roots.add(r)
            child = list(colors)
            child[v] = fresh
            search(child, path + (v,))

    search(init, ())
    return repr(best[0]).encode()


def are_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# connectivity structure


def is_two_edge_connected(g: Multigraph) -> bool:
    """True iff the graph is connected and has no bridge.

    A parallel pair is never a bridge. Cut vertices are fine: C_{3,3}
    (two triangles sharing a vertex) passes. Raises on disconnected input.
    """
    if not g.is_connected():
        raise GraphError("graph not connected")
    n = g.vertex_count
    if n <= 1:
        return True
    adj = g.adjacency()
    disc = [-1] * n
    low = [0] * n
    timer = 0
    # iterative DFS; a tree edge (p, x) is a bridge iff low[x] > disc[p]
    # and the pair has multiplicity 1
    stack: list[tuple[int, int, Iterator[int]]] = [(0, -1, iter(adj[0]))]
    disc[0] = low[0] = timer
    timer += 1
    while stack:
        x, parent, it = stack[-1]
        advanced = False
        for y in it:
            if disc[y] == -1:
                disc[y] = low[y] = timer
                timer += 1
                stack.append((y, x, iter(adj[y])))
                advanced = True
                break
            if y != parent:
                low[x] = min(low[x], disc[y])
            elif adj[x][y] > 1:
                low[x] = min(low[x], disc[y])
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[x] > disc[p] and adj[p][x] == 1:
                    return False
                low[p] = min(low[p], low[x])
    return True


def bridges(g: Multigraph) -> list[tuple[int, int]]:
    """All bridge pairs (u, v), u < v. Parallel bundles are never bridges."""
    out = []
    n = g.vertex_count
    if n <= 1:
        return out
    adj = g.adjacency()
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(adj[root]))]
        while stack:
            x, parent, it = stack[-1]
            advanced = False
            for y in it:
                if disc[y] == -1:
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, x, iter(adj[y])))
                    advanced = True
                    break
                if y != parent or adj[x][y] > 1:
                    low[x] = min(low[x], disc[y])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[x] > disc[p] and adj[p][x] == 1:
                        out.append((min(p, x), max(p, x)))
                    low[p] = min(low[p], low[x])
    return sorted(out)


def biconnected_components(g: Multigraph) -> list[Multigraph]:
    """Edge blocks of a connected multigraph, each relabeled compactly.

    The spanning-tree count multiplies over blocks, so counting can
    factor through this decomposition.
    """
    if not g.is_connected():
        raise GraphError("graph not connected")
    n = g.vertex_count
    if n <= 1 or not g.edges:
        return []
    adj = g.adjacency()
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    comps: list[list[tuple[int, int]]] = []
    disc[0] = low[0] = timer
    timer += 1
    stack: list[tuple[int, int, Iterator[int]]] = [(0, -1, iter(sorted(adj[0])))]
    while stack:
        x, parent, it = stack[-1]
        advanced = False
        for y in it:
            if disc[y] == -1:
                edge_stack.append((x, y))
                disc[y] = low[y] = timer
                timer += 1
                stack.append((y, x, iter(sorted(adj[y]))))
                advanced = True
                break
            if y != parent and disc[y] < disc[x]:
                edge_stack.append((x, y))
                low[x] = min(low[x], disc[y])
            elif y == parent and adj[x][y] > 1:
                low[x] = min(low[x], disc[y])
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[x])
                if low[x] >= disc[p]:
                    comp = []
                    while edge_stack and edge_stack[-1] != (p, x):
                        comp.append(edge_stack.pop())
                    if edge_stack:
                        comp.append(edge_stack.pop())
                    if comp:
                        comps.append(comp)
    blocks = []
    for comp in comps:
        verts = sorted({v for e in comp for v in e})
        index = {v: i for i, v in enumerate(verts)}
        pairs = [(index[u], index[v], g.multiplicity(u, v)) for u, v in {tuple(sorted(e)) for e in comp}]
        blocks.append(Multigraph.from_edges(len(verts), pairs))
    return blocks

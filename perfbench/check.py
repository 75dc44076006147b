"""Independent answer checker.

Nothing here imports treeforge. Every tree count the program returns is
re-derived from the graph's edge list by this module's own Laplacian
determinant, taken modulo two 31-bit primes, and compared with the
program's exact integer modulo the same primes. The other checks compare
against data kept in this directory (Euler's idoneal numbers, the
alpha/beta reference table) or against facts the answer must satisfy on
its face (vertex budgets, simplicity, bound flags). An answer that
reports an exception fails.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from workloads import FIXED_POINTS, load_reference

PRIMES = (2147483647, 2147483629)

#: Euler's 65 idoneal numbers, kept here rather than imported.
EULER_IDONEAL = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28,
    30, 33, 37, 40, 42, 45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102,
    105, 112, 120, 130, 133, 165, 168, 177, 190, 210, 232, 240, 253, 273,
    280, 312, 330, 345, 357, 385, 408, 462, 520, 760, 840, 1320, 1365, 1848,
)


# ---------------------------------------------------------------------------
# spanning-tree count modulo a prime


def tree_count_mod(vertex_count: int, edges, p: int) -> int:
    """Spanning-tree count of a multigraph modulo the prime p.

    ``edges`` holds (u, v) or (u, v, multiplicity) entries. Vertex 0 is the
    ground. Vertices with at most two neighbours are eliminated first
    (Kron reduction: the Schur complement of a Laplacian is the Laplacian
    of a weighted graph), which takes long paths and cycles down to a
    handful of vertices; the rest is a dense determinant mod p in numpy.
    """
    if vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    adj: list[dict[int, int]] = [dict() for _ in range(vertex_count)]
    for e in edges:
        u, v = e[0], e[1]
        m = e[2] if len(e) > 2 else 1
        if u == v or m < 1:
            raise ValueError(f"bad edge {tuple(e)}")
        adj[u][v] = (adj[u].get(v, 0) + m) % p
        adj[v][u] = adj[u][v]
    det = 1
    alive = [True] * vertex_count
    queue = deque(v for v in range(1, vertex_count) if len(adj[v]) <= 2)
    while queue:
        v = queue.popleft()
        if not alive[v] or len(adj[v]) > 2:
            continue
        d = sum(adj[v].values()) % p
        if d == 0:
            if not adj[v]:
                return 0  # isolated vertex: disconnected
            continue  # pivot vanishes mod p; leave v to the dense step
        det = det * d % p
        alive[v] = False
        nbrs = list(adj[v].items())
        for w, _ in nbrs:
            del adj[w][v]
        if len(nbrs) == 2:
            (a, wa), (b, wb) = nbrs
            add = wa * wb % p * pow(d, p - 2, p) % p
            adj[a][b] = (adj[a].get(b, 0) + add) % p
            adj[b][a] = adj[a][b]
        adj[v] = {}
        for w, _ in nbrs:
            if w != 0 and len(adj[w]) <= 2:
                queue.append(w)
    rest = [v for v in range(1, vertex_count) if alive[v]]
    if not rest:
        return det
    index = {v: i for i, v in enumerate(rest)}
    m = len(rest)
    a = np.zeros((m, m), dtype=np.int64)
    for v in rest:
        i = index[v]
        a[i, i] = sum(adj[v].values()) % p
        for w, wt in adj[v].items():
            if w in index:
                a[i, index[w]] = (p - wt) % p
    return det * _det_mod(a, p) % p


def _det_mod(a: np.ndarray, p: int) -> int:
    """Determinant of a square int64 matrix with entries in [0, p)."""
    m = a.shape[0]
    det = 1
    for k in range(m):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = p - det
        piv = int(a[k, k])
        det = det * piv % p
        if k + 1 == m:
            break
        f = a[k + 1 :, k] * pow(piv, p - 2, p) % p
        # entries stay below 2**31, so each product fits in int64
        a[k + 1 :, k:] = (a[k + 1 :, k:] - np.outer(f, a[k, k:]) % p) % p
    return det % p


def count_matches(vertex_count: int, edges, claimed: int) -> bool:
    """True when ``claimed`` agrees with the tree count modulo both primes."""
    return all(tree_count_mod(vertex_count, edges, p) == claimed % p for p in PRIMES)


# ---------------------------------------------------------------------------
# per-workload answer checks


class Checker:
    """Checks answers; remembers graphs it has counted, since every pass of
    a run repeats the same queries."""

    def __init__(self) -> None:
        self._seen: dict[tuple, bool] = {}
        self.reference = load_reference()

    def _graph_ok(self, graph: dict, n: int) -> str | None:
        edges = [tuple(e) for e in graph["edges"]]
        key = (graph["vertices"], tuple(edges), n)
        ok = self._seen.get(key)
        if ok is None:
            ok = count_matches(graph["vertices"], edges, n)
            self._seen[key] = ok
        return None if ok else f"graph on {graph['vertices']} vertices does not have {n} trees"

    def check(self, query: dict, answer: dict) -> str | None:
        """None when the answer is right, else a one-line reason."""
        if "error" in answer:
            return f"raised {answer['error']}"
        return getattr(self, "_" + query["op"])(query, answer)

    # witness_scan ---------------------------------------------------------

    def _witness(self, q: dict, a: dict) -> str | None:
        n = q["n"]
        g = a["graph"]
        if a["tau"] != n:
            return f"witness claims {a['tau']} trees, asked for {n}"
        if g["vertices"] != a["vertices"] or sum(e[2] for e in g["edges"]) != a["edges"]:
            return "witness vertex/edge fields disagree with its edge list"
        if any(e[2] != 1 for e in g["edges"]):
            return "witness is not simple"
        b = a["bounds"]
        e, v = a["edges"], a["vertices"]
        want = {
            "bound_third": 3 * e <= n + 7,
            "bound_quarter": 4 * e <= n + 13,
            "vertex_bound_third": 3 * v <= n + 4,
            "vertex_bound_quarter": 4 * v <= n + 9,
        }
        if b != want:
            return f"bound flags {b} differ from {want}"
        return self._graph_ok(g, n)

    def _sieve(self, q: dict, a: dict) -> str | None:
        want = [x for x in EULER_IDONEAL if x <= q["limit"]]
        if a["values"] != want:
            return f"sieve returned {len(a['values'])} values, expected the {len(want)} Euler numbers"
        return None

    # exhaustive_search ----------------------------------------------------

    def _alpha(self, q: dict, a: dict) -> str | None:
        n = q["n"]
        want = self.reference[n]["alpha"]
        if a["value"] != want:
            return f"alpha({n}) = {a['value']}, reference {want}"
        g = a["graph"]
        if g["vertices"] != want or any(e[2] != 1 for e in g["edges"]):
            return "alpha witness has the wrong vertex count or is not simple"
        if a["witness_vertices"] < want:
            return f"alpha({n}) = {want} exceeds the build_witness vertex count {a['witness_vertices']}"
        return self._graph_ok(g, n)

    def _beta(self, q: dict, a: dict) -> str | None:
        n = q["n"]
        ref = self.reference[n]["beta"]
        want = ref if ref is not None and ref <= q["max_edges"] else None
        if a["value"] != want:
            return f"beta({n}) within {q['max_edges']} edges = {a['value']}, reference {want}"
        if want is None:
            return None
        g = a["graph"]
        if sum(e[2] for e in g["edges"]) != want or any(e[2] != 1 for e in g["edges"]):
            return "beta witness has the wrong edge count or is not simple"
        return self._graph_ok(g, n)

    # fixedpoint_proof -----------------------------------------------------

    def _fixedpoint(self, q: dict, a: dict) -> str | None:
        n, budget = q["n"], q["budget"]
        expect_proof = budget == n and n in FIXED_POINTS
        if a["proved"] != expect_proof:
            return f"fixedpoint({n}, {budget}) proved={a['proved']}, expected {expect_proof}"
        if a["proved"]:
            return None if not a["witnesses"] else "proved yet lists witnesses"
        if not a["witnesses"]:
            return "refuted without a witness"
        for g in a["witnesses"]:
            if g["vertices"] >= budget:
                return f"witness on {g['vertices']} vertices is not below budget {budget}"
            if any(e[2] != 1 for e in g["edges"]):
                return "fixedpoint witness is not simple"
            err = self._graph_ok(g, n)
            if err:
                return err
        return None

    # count_exact ----------------------------------------------------------

    def _count(self, q: dict, a: dict) -> str | None:
        if a["dc"] is not None and a["dc"] != a["tau"]:
            return f"tau_matrix {a['tau']} and tau_dc {a['dc']} disagree"
        g = {"vertices": q["vertices"], "edges": [(u, v, 1) for u, v in q["edges"]]}
        return self._graph_ok(g, a["tau"])

"""Seeded inputs for the four workloads.

Each generator returns the query list of one pass. The same (workload,
seed, smoke) always gives the same list. Queries are plain dicts; ``op``
names the public call the worker makes. Nothing here imports treeforge:
the program sees only the generated inputs.

Query mixes are stratified (a fixed number of draws per stratum, the seed
only choosing within each stratum), so that every seed asks the program
for about the same amount of work and the figures of different seeds can
be compared.
"""

from __future__ import annotations

import json
import os
import random

#: n whose least vertex count alpha(n) equals n itself.
FIXED_POINTS = frozenset({3, 4, 5, 6, 7, 10, 13, 22})

WORKLOADS = ("witness_scan", "exhaustive_search", "fixedpoint_proof", "count_exact")


def load_reference() -> dict[int, dict]:
    """alpha/beta reference table, made by make_reference.py."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as fh:
        raw = json.load(fh)
    return {int(n): row for n, row in raw["table"].items()}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def generate(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()["_" + workload](_rng(workload, seed), smoke)


# ---------------------------------------------------------------------------


def _witness_scan(rng: random.Random, smoke: bool) -> list[dict]:
    """build_witness + check_bounds for n spread evenly over [3, 10**5]
    (one draw per equal-width bin), plus one idoneal sieve to about 10**6."""
    hi, count, limit = (2000, 8, 5000) if smoke else (10**5, 300, 10**6)
    width = (hi - 3) / count
    queries = [
        {"op": "witness", "n": 3 + int(width * i + rng.random() * width)} for i in range(count)
    ]
    queries.insert(rng.randrange(count + 1), {"op": "sieve", "limit": int(limit * rng.uniform(0.95, 1.05))})
    return queries


# tier -> (alpha draws per reference value, {beta max_edges: draws})
_TIERS = {
    64: ({3: 1, 4: 1, 5: 1, 6: 2, 7: 3}, {4: 1, 5: 1, 6: 1, 7: 2, 9: 2}),
    128: ({6: 3}, {4: 1, 5: 1, 6: 1, 7: 2, 8: 2}),
    256: ({6: 1, 7: 2}, {4: 1, 5: 1, 6: 1, 7: 2, 8: 2}),
}
_SMOKE_TIERS = {64: ({3: 1, 4: 2, 5: 2}, {5: 2, 6: 2})}


def _exhaustive_search(rng: random.Random, smoke: bool) -> list[dict]:
    """alpha_exact(n, 8) and beta_exact(n, max_edges), tier by tier.

    The pruning cap is n rounded up to a power of two (at least 64), and
    the program caches levels per cap (and per edge cap for beta), so
    queries of one tier share work. Alpha queries only use n whose alpha
    is known from the reference table (at most 7 vertices), a fixed number
    per alpha value, and run in ascending alpha order; then come the beta
    queries, grouped by max_edges. So in every seed the same 23 queries
    build levels (the first of each alpha value and of each max_edges,
    from a millisecond to seconds) and the other 12 reuse them.
    """
    ref = load_reference()
    queries = []
    for tier, (alpha_draws, beta_draws) in (_SMOKE_TIERS if smoke else _TIERS).items():
        lo = 3 if tier == 64 else tier // 2 + 1
        ns = range(lo, tier + 1)
        for value, k in alpha_draws.items():
            pool = [n for n in ns if ref[n]["alpha"] == value]
            queries += [{"op": "alpha", "n": n, "max_vertices": 8, "tier": tier} for n in rng.sample(pool, k)]
        for max_edges, k in beta_draws.items():
            queries += [
                {"op": "beta", "n": n, "max_edges": max_edges, "tier": tier}
                for n in rng.sample(list(ns), k)
            ]
    return queries


def _fixedpoint_proof(rng: random.Random, smoke: bool) -> list[dict]:
    """verify_no_smaller_graph(n, budget), in seeded order.

    Every pass proves the eight fixed points at budget n (skeleton
    enumeration at cyclomatic number 4 dominates n = 22), refutes n = 27
    at budget 27 (442 witnesses, so witness canonical forms dominate), and
    runs one sweep-heavy pair, n = 38 with a budget in [2n, 2n + 2] (about
    230k subdivision assignments). The 36 cheap seeded pairs take n = 13
    or 14 and one budget from each eighteenth of [n, 3n]. n = 36, which takes
    minutes at budget 36 or more, is left out: one such query does not
    fit in a run.
    """
    if smoke:
        fixed = sorted(x for x in FIXED_POINTS if x <= 13)
        return [{"op": "fixedpoint", "n": n, "budget": n} for n in fixed] + [
            {"op": "fixedpoint", "n": 14, "budget": 14 + rng.randrange(10)}
        ]
    pairs = [(n, n) for n in sorted(FIXED_POINTS)] + [(27, 27), (38, 76 + rng.randrange(3))]
    for n in (13, 14):
        width = 2 * n / 18
        pairs += [(n, n + int(width * i + rng.random() * width)) for i in range(18)]
    rng.shuffle(pairs)
    return [{"op": "fixedpoint", "n": n, "budget": b} for n, b in pairs]


# ---------------------------------------------------------------------------
# count_exact graphs


def _cycle(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def _theta(lengths) -> list[tuple[int, int]]:
    edges, nxt = [], 2
    for length in lengths:
        chain = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        edges += list(zip(chain, chain[1:]))
    return edges


def _grid(r: int, c: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
    return edges


def _random_sparse(rng: random.Random, k: int, edge_count: int) -> list[tuple[int, int]]:
    """Connected simple graph: a random tree plus random extra edges."""
    edges = set()
    for v in range(1, k):
        u = rng.randrange(v)
        edges.add((u, v))
    while len(edges) < edge_count:
        u, v = sorted(rng.sample(range(k), 2))
        edges.add((u, v))
    return sorted(edges)


def _vertex_count(edges) -> int:
    return 1 + max(max(u, v) for u, v in edges)


def _count_query(rng: random.Random, family: str, edges, both: bool) -> dict:
    k = _vertex_count(edges)
    perm = list(range(k))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return {"op": "count", "family": family, "both": both, "vertices": k, "edges": edges}


def _count_exact(rng: random.Random, smoke: bool) -> list[dict]:
    """Graphs handed over as edge-list text. The 24 large ones (six each
    of cycles, thetas, square grids and random sparse graphs of average
    degree 4) are counted with tau_matrix alone; the 20 small ones (8
    random sparse graphs on 11 vertices, 6 ladder and grid shapes, 6 cycle
    lengths; at most 16 vertices) with tau_matrix and tau_dc,
    cross-checked. Vertex labels and edge order are shuffled."""
    large = []
    for _ in range(1 if smoke else 6):
        if smoke:
            large.append(("cycle", _cycle(rng.randrange(150, 201))))
            large.append(("grid", _grid(4, 4 + rng.randrange(2))))
            continue
        large.append(("cycle", _cycle(rng.randrange(1900, 2001))))
        large.append(("theta", _theta([rng.randrange(620, 661) for _ in range(3)])))
        large.append(("grid", _grid(16, 16)))
        k = rng.randrange(240, 251)
        large.append(("random", _random_sparse(rng, k, 2 * k)))
    small = [("random", _random_sparse(rng, 11, 16 + rng.randrange(2))) for _ in range(2 if smoke else 8)]
    shapes = [(2, 6), (4, 4)] if smoke else [(2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4)]
    small += [("ladder_grid", _grid(*shape)) for shape in shapes]
    small += [("cycle", _cycle(k)) for k in ([12] if smoke else range(11, 17))]
    # a fixed order (large and small interleaved, small ones by family and
    # size) keeps the memo reuse between small graphs the same in every seed
    large_q = [_count_query(rng, f, e, False) for f, e in large]
    small_q = [_count_query(rng, f, e, True) for f, e in small]
    step = -(-len(small_q) // len(large_q))
    queries = []
    for i, q in enumerate(large_q):
        queries += [q] + small_q[i * step : (i + 1) * step]
    return queries


def edge_list_text(query: dict) -> str:
    """The edge-list file the count command would read for this query."""
    lines = [f"# {query['family']} graph", f"p {query['vertices']}"]
    lines += [f"{u} {v}" for u, v in query["edges"]]
    return "\n".join(lines) + "\n"

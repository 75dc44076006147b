"""Build reference.json: alpha(n) up to 7 vertices and beta(n) up to 9
edges, for 3 <= n <= 256, without using treeforge.

alpha comes from every graph on at most 7 vertices in networkx's graph
atlas. beta adds the graphs with at most 9 edges on 8 or 9 vertices: a
least-edge graph with n >= 3 trees has no pendant vertex (deleting one keeps
the count), so it has minimum degree 2, and with at most 9 edges on 8 or 9
vertices its cyclomatic number is at most 2. Those graphs are the cycles
C8 and C9 and the subdivisions of the three skeletons with cyclomatic
number 2 on 9 edges: thetas, figure-eights and handcuffs.

Counts are taken with check.tree_count_mod; all of them are below the
prime, so the residue is the exact count.

Run: python3 perfbench/make_reference.py  (needs networkx)
"""

from __future__ import annotations

import json
import os

import networkx as nx

from check import PRIMES, tree_count_mod

N_MAX = 256
ALPHA_VERTICES = 7
BETA_EDGES = 9


def _paths(anchor_pairs, lengths, first_free):
    """Edges of paths of the given lengths between anchor pairs."""
    edges = []
    nxt = first_free
    for (a, b), length in zip(anchor_pairs, lengths):
        chain = [a] + list(range(nxt, nxt + length - 1)) + [b]
        nxt += length - 1
        edges.extend(zip(chain, chain[1:]))
    return nxt, edges


def _sparse_graphs():
    """Connected simple min-degree-2 graphs with at most 9 edges on 8 or 9
    vertices, as (vertex_count, edges)."""
    for k in (8, 9):
        yield _paths([(0, 0)], [k], 1)
    for a in range(1, 8):
        for b in range(a, 8):
            c = BETA_EDGES - a - b
            if c >= b and b >= 2:  # at most one path of length 1
                yield _paths([(0, 1)] * 3, [a, b, c], 2)
    for a in range(3, 7):
        b = BETA_EDGES - a
        if b >= a:
            yield _paths([(0, 0), (0, 0)], [a, b], 1)
    for a in range(3, 7):
        for b in range(a, 7):
            bridge = BETA_EDGES - a - b
            if bridge >= 1:
                yield _paths([(0, 0), (1, 1), (0, 1)], [a, b, bridge], 2)


def build_table() -> dict[int, dict]:
    alpha: dict[int, int] = {}
    beta: dict[int, int] = {}
    p = PRIMES[0]

    def record(v: int, edges: list) -> None:
        t = tree_count_mod(v, edges, p)
        if 3 <= t <= N_MAX:
            if v <= ALPHA_VERTICES:
                alpha[t] = min(alpha.get(t, v), v)
            if len(edges) <= BETA_EDGES:
                beta[t] = min(beta.get(t, len(edges)), len(edges))

    for g in nx.graph_atlas_g():
        if g.number_of_nodes() and nx.is_connected(g):
            record(g.number_of_nodes(), list(g.edges()))
    for v, edges in _sparse_graphs():
        assert len(edges) <= BETA_EDGES and v in (8, 9)
        record(v, edges)
    return {n: {"alpha": alpha.get(n), "beta": beta.get(n)} for n in range(3, N_MAX + 1)}


def main() -> None:
    table = build_table()
    out = {
        "about": "alpha(n) if some graph on <= 7 vertices has n trees, else null; "
        "beta(n) if some graph with <= 9 edges has n trees, else null. "
        "Made by make_reference.py.",
        "table": {str(n): row for n, row in table.items()},
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()

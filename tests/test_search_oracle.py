import hashlib
import json
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial

import networkx as nx
import numpy as np
import pytest

from treeforge import search_oracle
from treeforge.graph_core import (
    GraphError,
    Multigraph,
    are_isomorphic,
    automorphisms,
    canonical_form,
    complete_graph,
    cycle_graph,
    delete_edge,
    first_leaf,
    is_two_edge_connected,
    subdivision,
)
from treeforge.search_oracle import (
    SKELETON_CEILING,
    WITNESS_VERTEX_CEILING,
    SearchKind,
    Skeleton,
    _Sweep,
    _adjacency_masks,
    _level,
    _new_class,
    _signature,
    _sweeps,
    alpha_exact,
    beta_exact,
    clear_level_cache,
    enumerate_connected_graphs,
    enumerate_skeletons,
    verify_no_smaller_graph,
)
from treeforge.tree_count import tau_matrix

import oracles
from oracles import (
    brute_isomorphic,
    brute_subdivision_sweep,
    full_transposition_sources,
    image_orbit_least,
    reference_search,
    reference_skeletons,
    reference_witnesses,
    transposition_skeletons,
)


CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}  # OEIS A001349


@lru_cache(maxsize=None)
def reference_level(k, tau_cap, edge_cap=None):
    """_level before its skip tests: every candidate is built, counted and
    canonicalised. Not an independent oracle (it shares tau_matrix and
    canonical_form), but the skip tests must leave its output unchanged."""
    if k < 1:
        return ()
    if k == 1:
        return ((Multigraph(1, ()), 1),)
    out = {}
    base = reference_level(k - 1, tau_cap, edge_cap)
    old = k - 1
    for g, _ in base:
        edge_list = list(g.edges)
        for bits in range(1, 1 << old):
            # g is simple, so the candidate has one edge per pair
            if edge_cap is not None and len(edge_list) + bits.bit_count() > edge_cap:
                continue
            pairs = edge_list + [
                (v, old, 1) for v in range(old) if bits >> v & 1
            ]
            cand = Multigraph(k, tuple(sorted(pairs)))
            t = tau_matrix(cand)  # cheaper than canonicalizing, so filter first
            if tau_cap is not None and t > tau_cap:
                continue
            key = canonical_form(cand)
            if key not in out:
                out[key] = (cand, t)
    return tuple(sorted(out.values(), key=lambda item: (item[0].edge_count, item[0].edges)))


LEVEL_CASES = (
    [(k, None, None) for k in range(1, 8)]
    + [(k, 64, None) for k in range(1, 9)]
    + [(k, 64, e) for e in range(4, 10) for k in range(1, e + 1)]
)


@pytest.mark.parametrize("k, tau_cap, edge_cap", LEVEL_CASES)
def test_level_equals_reference(k, tau_cap, edge_cap):
    # same classes, same representative edge lists, same order
    assert _level(k, tau_cap, edge_cap) == reference_level(k, tau_cap, edge_cap)


def _levels_up_to(top, tau_cap, edge_cap=None):
    return [(k, tau_cap, edge_cap) for k in range(1, top + 1)]


TIERS = {t: _levels_up_to(7, t) for t in (64, 128, 256)}
EDGE_CAPS = {e: _levels_up_to(e, 64, e) for e in range(4, 10)}
ALPHA = _levels_up_to(7, 128)
BETA = EDGE_CAPS[5] + EDGE_CAPS[7] + EDGE_CAPS[9] + _levels_up_to(6, 256, 6)
BUILD_ORDERS = {
    "tiers up": TIERS[64] + TIERS[128] + TIERS[256],
    "tiers down": TIERS[256] + TIERS[128] + TIERS[64],
    "edge caps up": [key for e in range(4, 10) for key in EDGE_CAPS[e]],
    "edge caps down": [key for e in range(9, 3, -1) for key in EDGE_CAPS[e]],
    "alpha then beta": ALPHA + BETA,
    "beta then alpha": BETA + ALPHA,
}


@lru_cache(maxsize=None)
def cold_level(k, tau_cap, edge_cap):
    clear_level_cache()
    return _level(k, tau_cap, edge_cap)


@pytest.mark.parametrize("order", BUILD_ORDERS)
def test_level_independent_of_build_order(order):
    # a level filtered from, or extended from, whatever is cached equals
    # the level built from scratch: same tuples in the same order
    clear_level_cache()
    built = [(key, _level(*key)) for key in BUILD_ORDERS[order]]
    for key, level in built:
        assert level == reference_level(*key), key
        assert level == cold_level(*key), key
    clear_level_cache()


def test_level_store(monkeypatch):
    # one store per vertex count holds each class once, whatever caps built it
    clear_level_cache()
    keys = [(k, cap, None) for cap in range(1, 70) for k in (2, 3, 4)]
    for key in keys:
        assert _level(*key) == reference_level(*key), key
    for k in (2, 3, 4):
        assert search_oracle._levels[k][0] == list(reference_level(k, 69)), k

    # extending (k, 128) after (k, 64) deduplicates only the new classes
    clear_level_cache()
    _level(6, 64)
    counts = []

    def counted(buckets, key, cand):
        counts.append(tau_matrix(cand))
        return _new_class(buckets, key, cand)

    monkeypatch.setattr(search_oracle, "_new_class", counted)
    assert _level(6, 128) == reference_level(6, 128)
    assert counts and min(counts) > 64

    # a request inside served caps is the store filtered: nothing is counted
    # or deduplicated
    def forbidden(*args, **kwargs):
        raise AssertionError("called for a level inside served caps")

    for name in ("_new_class", "first_leaf", "canonical_form", "tau_matrix"):
        monkeypatch.setattr(search_oracle, name, forbidden)
    for key in [(6, 100, None), (6, 64, 9), (5, 128, None), (6, 1, 1)]:
        assert _level(*key) == reference_level(*key), key
    clear_level_cache()


@pytest.mark.parametrize("order", ["tiers up", "alpha then beta"])
def test_level_counts_each_candidate_once(monkeypatch, order):
    # extending levels at larger caps reuses every stored count: no
    # candidate edge list is counted twice until clear_level_cache(), and
    # a cold rebuild after it counts as much as the first build
    counted = []

    def tau(g):
        counted.append(g.edges)
        return tau_matrix(g)

    monkeypatch.setattr(search_oracle, "tau_matrix", tau)
    builds = []
    for _ in range(2):
        clear_level_cache()
        counted.clear()
        levels = [_level(*key) for key in BUILD_ORDERS[order]]
        assert len(set(counted)) == len(counted) > 0
        builds.append((levels, list(counted)))
    clear_level_cache()
    assert builds[0] == builds[1]


def test_level_rebuild_reads_stored_verdicts(monkeypatch):
    # with the levels forgotten but every (parent, mask) verdict kept, a
    # rebuild under the same caps runs no rule and counts nothing
    clear_level_cache()
    expected = [_level(k, 128) for k in range(1, 8)]

    def forbidden(*args, **kwargs):
        raise AssertionError("called for a parent whose masks all have verdicts")

    for name in ("_twins", "_heavy_vertices", "tau_matrix"):
        monkeypatch.setattr(search_oracle, name, forbidden)
    search_oracle._levels.clear()
    assert [_level(k, 128) for k in range(1, 8)] == expected
    for cap in (64, 100):
        search_oracle._levels.clear()
        assert _level(7, cap) == reference_level(7, cap)
    monkeypatch.undo()
    clear_level_cache()


def _dedup_key(g):
    """The (count, signature) under which _level files g, read off g minus
    its last vertex as _level reads it off the parent."""
    v = g.vertex_count - 1
    parent = Multigraph(v, tuple(e for e in g.edges if e[1] != v))
    bits = sum(1 << a for a, b, _ in g.edges if b == v)
    return tau_matrix(g), _signature(_adjacency_masks(parent), bits)


# (level, first arrival, later arrival, same class): two 4-regular graphs
# on 7 vertices whose first leaves differ, and two graphs with 12 trees,
# 9 edges and one degree signature that are not isomorphic
FALLBACK_PAIRS = {
    "isomorphic, first leaves differ": (
        (7, None),
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (1, 6),
         (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)],
        [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (1, 6),
         (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6)],
        True,
    ),
    "same count and signature, not isomorphic": (
        (8, 64),
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (3, 7), (5, 6)],
        [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (2, 6), (4, 7), (5, 7)],
        False,
    ),
}


@pytest.mark.parametrize("name", FALLBACK_PAIRS)
def test_level_dedup_falls_back_to_canonical_form(monkeypatch, name):
    # a pair that first leaves cannot settle is decided by canonical_form,
    # both in _new_class alone and where _level meets it
    (k, cap), first, later, same = FALLBACK_PAIRS[name]
    a, b = Multigraph.from_edges(k, first), Multigraph.from_edges(k, later)
    key = _dedup_key(a)
    assert _dedup_key(b) == key
    assert first_leaf(a) != first_leaf(b)
    assert brute_isomorphic(a, b) == same

    decided = []

    def recorded(g, *args, **kwargs):
        decided.append(g)
        return canonical_form(g, *args, **kwargs)

    monkeypatch.setattr(search_oracle, "canonical_form", recorded)
    buckets = {}
    assert _new_class(buckets, key, a)
    assert _new_class(buckets, key, b) == (not same)
    assert decided == [b, a]
    assert len(buckets[key]) == (1 if same else 2)

    decided.clear()
    clear_level_cache()
    level = _level(k, cap)
    clear_level_cache()
    assert decided == [b, a]  # the only pair of the level left to it
    reps = [g for g, t in level if t == key[0] and g.edge_count == a.edge_count]
    reps = [g for g in reps if _dedup_key(g) == key]
    assert [g for g in reps if brute_isomorphic(g, a)] == [a]
    assert [g for g in reps if brute_isomorphic(g, b)] == [a if same else b]


def test_level_mass_formula():
    # the labelled connected graphs on k vertices, counted by the recurrence
    # c_k = 2^C(k,2) - sum_{j<k} C(k-1, j-1) c_j 2^C(k-j,2) (Harary & Palmer,
    # Graphical Enumeration, 1973), are the sum of k!/|Aut(G)| over the
    # classes; no class is listed to count them
    c = {}
    for k in range(1, 9):
        c[k] = 2 ** comb(k, 2) - sum(
            comb(k - 1, j - 1) * c[j] * 2 ** comb(k - j, 2) for j in range(1, k)
        )
    assert [c[k] for k in range(2, 9)] == [1, 4, 38, 728, 26704, 1866256, 251548592]
    for k in range(2, 9):
        mass = sum(factorial(k) // len(automorphisms(g)) for g, _ in _level(k, None))
        assert mass == c[k], k


def _twin_split(cand):
    """Twins u < w of the parent cand - v (v the last vertex) with w joined
    to v and u not."""
    v = cand.vertex_count - 1
    nbrs = {x: set() for x in range(cand.vertex_count)}
    for a, b, _ in cand.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    s = nbrs[v]
    return [
        (u, w)
        for u, w in combinations(range(v), 2)
        if w in s and u not in s and nbrs[u] - {w, v} == nbrs[w] - {u, v}
    ]


def test_level_twin_rule(monkeypatch):
    # no candidate is counted when a twin swap of its parent gives a
    # smaller neighbour mask
    counted = []

    def tau(g):
        counted.append(g)
        return tau_matrix(g)

    monkeypatch.setattr(search_oracle, "tau_matrix", tau)
    clear_level_cache()
    for k in range(1, 8):
        _level(k, None)
    assert len(counted) == 1685  # 2173 without the twin rule
    for e in range(4, 10):
        clear_level_cache()
        _level(e, 64, e)
    clear_level_cache()
    assert [c for c in counted if _twin_split(c)] == []


class TestEnumeration:
    def test_counts_match_known_sequence(self):
        for k, expected in CONNECTED_COUNTS.items():
            assert sum(1 for _ in enumerate_connected_graphs(k)) == expected

    def test_four_vertices_against_direct_subset_enumeration(self):
        # independent oracle: all 2^6 subsets of K4's edges, deduplicated by
        # permutation isomorphism
        edges = list(combinations(range(4), 2))
        reps = []
        for bits in range(64):
            chosen = [e for i, e in enumerate(edges) if bits >> i & 1]
            g = Multigraph.from_edges(4, chosen)
            if not g.is_connected():
                continue
            if not any(brute_isomorphic(g, h) for h in reps):
                reps.append(g)
        ours = list(enumerate_connected_graphs(4))
        assert len(reps) == len(ours) == 6
        for g in ours:
            assert any(brute_isomorphic(g, h) for h in reps)

    def test_two_edge_connected_filter_on_four_vertices(self):
        got = [g for g in enumerate_connected_graphs(4) if is_two_edge_connected(g)]
        expected = [
            cycle_graph(4),
            delete_edge(complete_graph(4), 0, 1),
            complete_graph(4),
        ]
        assert len(got) == 3
        for h in expected:
            assert any(are_isomorphic(g, h) for g in got)

    def test_ceiling(self):
        with pytest.raises(Exception, match="ceiling"):
            list(enumerate_connected_graphs(12))


class TestAlphaBeta:
    def test_alpha_8(self):
        res = alpha_exact(8, 8)
        assert res.value == 4 and res.kind is SearchKind.ALPHA
        assert tau_matrix(res.witness.graph) == 8

    def test_alpha_18(self):
        assert alpha_exact(18, 8).value == 8

    def test_beta_9(self):
        res = beta_exact(9, 7)
        assert res.value == 6
        assert res.witness.graph.edge_count == 6

    def test_beta_8(self):
        assert beta_exact(8, 6).value == 5

    def test_beta_3(self):
        res = beta_exact(3, 4)
        assert res.value == 3
        assert are_isomorphic(res.witness.graph, cycle_graph(3))

    def test_not_found_reports_budget(self):
        res = alpha_exact(13, 7)
        assert res.value is None and res.witness is None
        assert res.search_space["budget"] == 7

    def test_witnesses_recertify(self):
        for n in (8, 9, 11, 12):
            res = alpha_exact(n, 7)
            assert tau_matrix(res.witness.graph) == n

    def test_shared_walk_equals_reference(self):
        for n in range(3, 80):
            for kind, search, budgets in (
                ("alpha", alpha_exact, range(1, 9)),
                ("beta", beta_exact, range(1, 10)),
            ):
                for b in budgets:
                    got, ref = search(n, b), reference_search(n, kind, b)
                    if kind == "alpha" and n > b ** max(b - 2, 0):
                        # stopped at Cayley's bound: nothing walked, same answer
                        assert got.value is ref.value is None and got.witness is None
                        assert got.search_space == {**ref.search_space, "classes_per_level": {}}
                    else:
                        assert got == ref, (kind, n, b)

    def test_cayley_stop(self):
        # K_8 has 8**6 = 262144 trees, the most of any graph on 8 vertices
        assert alpha_exact(262144, 8).value == 8
        clear_level_cache()
        res = alpha_exact(262145, 8)
        assert res.value is None and res.search_space["classes_per_level"] == {}
        assert not search_oracle._levels and not search_oracle._verdicts

    def test_alpha_beta_ordering_small(self):
        # alpha < beta except at fixed points, where both equal n
        for n in range(3, 14):
            a = alpha_exact(n, 8)
            b = beta_exact(n, 10)
            if n in (3, 4, 5, 6, 7, 10, 13):
                if n <= 8:
                    assert a.value == n
                if n <= 10:
                    assert b.value == n or b.value is None
            elif a.value is not None and b.value is not None:
                assert a.value < b.value


def dumb_min_vertices(max_k: int, tau_limit: int) -> dict[int, int]:
    """Second implementation, no isomorphism rejection: for every k, run all
    edge subsets of K_k through a floating determinant.

    Counts here are at most K_7's 16807, far below the 2**53 exactness
    window, and the determinant error of a 6x6 integer matrix is orders of
    magnitude below 0.5, so rounding recovers the exact integer.
    """
    table: dict[int, int] = {}
    for k in range(2, max_k + 1):
        edges = list(combinations(range(k), 2))
        contrib = np.zeros((len(edges), (k - 1) * (k - 1)))
        for i, (u, v) in enumerate(edges):
            lap = np.zeros((k - 1, k - 1))
            if u > 0:
                lap[u - 1, u - 1] += 1
            if v > 0:
                lap[v - 1, v - 1] += 1
            if u > 0 and v > 0:
                lap[u - 1, v - 1] -= 1
                lap[v - 1, u - 1] -= 1
            contrib[i] = lap.ravel()
        m = len(edges)
        chunk = 1 << 14
        for start in range(0, 1 << m, chunk):
            subs = np.arange(start, min(start + chunk, 1 << m), dtype=np.int64)
            bits = (subs[:, None] >> np.arange(m)) & 1
            laps = (bits.astype(np.float64) @ contrib).reshape(-1, k - 1, k - 1)
            dets = np.linalg.det(laps)
            taus = np.rint(dets).astype(np.int64)
            assert np.max(np.abs(dets - taus)) < 1e-3
            for t in np.unique(taus[(taus >= 3) & (taus <= tau_limit)]):
                t = int(t)
                if t not in table or k < table[t]:
                    table[t] = k
    return table


@pytest.mark.slow
def test_alpha_agrees_with_dumb_enumeration():
    table = dumb_min_vertices(7, 40)
    for n in range(3, 41):
        assert alpha_exact(n, 7).value == table.get(n), f"alpha({n})"
        res8 = alpha_exact(n, 8)
        if table.get(n) is not None:
            assert res8.value == table[n], f"alpha({n}) within 8"
        else:
            assert res8.value in (8, None), f"alpha({n}) beyond the dumb range"


class TestSkeletons:
    def test_cyclomatic_two(self):
        skels = enumerate_skeletons(2)
        assert len(skels) == 3
        shapes = {tuple(sorted(s.slots)) for s in skels}
        assert ((0, 1), (0, 1), (0, 1)) in shapes  # triple edge
        assert ((0, 0), (0, 0)) in shapes  # two loops at one vertex
        assert ((0, 0), (0, 1), (1, 1)) in shapes  # dumbbell

    def test_counts_and_pairwise_non_isomorphic(self):
        # networkx's multigraph matcher counts parallel edges and loops, and
        # shares no code with canonical_form
        for c, expected in ((2, 3), (3, 15), (4, 111)):
            graphs = []
            for s in enumerate_skeletons(c):
                h = nx.MultiGraph()
                h.add_nodes_from(range(s.vertex_count))
                h.add_edges_from(s.slots)
                graphs.append(h)
            assert len(graphs) == expected
            for a, b in combinations(graphs, 2):
                assert not nx.is_isomorphic(a, b)

    @pytest.mark.parametrize("c", (2, 3, 4))
    def test_equal_to_unpruned_reference(self, c):
        # same Skeleton tuples in the same order as without the
        # transposition prune
        assert enumerate_skeletons(c) == reference_skeletons(c)

    @pytest.mark.parametrize("c", (2, 3, 4, 5))
    def test_equal_to_rescanning_reference(self, c, monkeypatch):
        # the incremental comparisons, child bounds and carried deficit cut
        # the same nodes as rescanning every prefix at every node: the same
        # leaves, in the same order, reach canonical_form, not only the
        # same classes
        cached = enumerate_skeletons(c)
        leaves = {search_oracle: [], oracles: []}
        for module, seen in leaves.items():

            def recording(residue, colors, seen=seen):
                seen.append((residue.vertex_count, residue.edges, tuple(colors)))
                return canonical_form(residue, colors=colors)

            monkeypatch.setattr(module, "canonical_form", recording)
        got = enumerate_skeletons.__wrapped__(c)
        assert got == transposition_skeletons(c) == cached
        assert leaves[search_oracle] == leaves[oracles]
        assert len(leaves[oracles]) >= len(got)

    def test_transposition_sources_list_moved_cells(self):
        for v in range(1, 7):
            cells = sorted((i, j) for i in range(v) for j in range(i, v))
            full = full_transposition_sources(v, cells)
            moved = search_oracle._transposition_sources(v, cells)
            assert len(moved) == len(full) == v * (v - 1) // 2
            for pairs, src in zip(moved, full):
                # a transposition swaps cells in pairs; the mirror (s, p) of
                # a listed pair is left out
                assert all(src[s] == p for p, s in enumerate(src))
                assert pairs == tuple((p, s) for p, s in enumerate(src) if s > p)
                assert pairs  # (a, a) and (b, b) always swap

    def test_level_five(self):
        # 1,076 classes, the count of the unpruned enumerator (which takes
        # minutes); pairwise non-isomorphic under networkx's matcher,
        # compared within buckets of equal vertex count and degree/loop
        # profile
        skels = enumerate_skeletons(5)
        assert len(skels) == 1076
        buckets = {}
        for s in skels:
            assert s.cyclomatic == 5
            assert all(s.degree(v) >= 3 for v in range(s.vertex_count))
            profile = sorted(
                (s.degree(v), s.slots.count((v, v))) for v in range(s.vertex_count)
            )
            h = nx.MultiGraph()
            h.add_nodes_from(range(s.vertex_count))
            h.add_edges_from(s.slots)
            buckets.setdefault((s.vertex_count, tuple(profile)), []).append(h)
        for graphs in buckets.values():
            for a, b in combinations(graphs, 2):
                assert not nx.is_isomorphic(a, b)
        assert _sweeps(5)[1] == 75

    def test_cached_per_cyclomatic_number(self):
        assert enumerate_skeletons(3) is enumerate_skeletons(3)
        assert isinstance(enumerate_skeletons(3), tuple)

    def test_sweep_table_per_level(self):
        # one cached table per level: the sweeps in skeleton order and the
        # level's least count
        for c, least in ((2, 8), (3, 16), (4, 40)):
            sweeps, level_min = _sweeps(c)
            assert _sweeps(c)[0] is sweeps
            assert tuple(sweep.skeleton for sweep in sweeps) == enumerate_skeletons(c)
            assert level_min == least == min(sweep.tau(sweep.mins) for sweep in sweeps)

    def test_min_degree_holds(self):
        for c in (2, 3, 4):
            for s in enumerate_skeletons(c):
                assert s.cyclomatic == c
                assert all(s.degree(v) >= 3 for v in range(s.vertex_count))

    def test_subdivision_tau_matches_matrix(self):
        for sweep in _sweeps(3)[0]:
            lengths = sweep.mins
            g = subdivision(sweep.skeleton, lengths)
            assert sweep.tau(lengths) == sweep.min_tau == tau_matrix(g)
            assert sweep.min_vertices == g.vertex_count
            bumped = [l + 1 for l in lengths]
            assert sweep.tau(bumped) == tau_matrix(subdivision(sweep.skeleton, bumped))

    def test_monotonicity_by_finite_differences(self):
        # strictly increasing in every non-bridge coordinate, constant in
        # bridge coordinates; needed for sweep soundness
        from treeforge.graph_core import bridges

        for c in (2, 3):
            for s in enumerate_skeletons(c):
                if len(s.slots) > 6:
                    continue
                sweep = _Sweep(s)
                base = [l + 1 for l in sweep.mins]
                t0 = sweep.tau(base)
                residue, _ = s.residue()
                bridge_pairs = set(bridges(residue))
                for i, (u, v) in enumerate(s.slots):
                    bumped = list(base)
                    bumped[i] += 1
                    t1 = sweep.tau(bumped)
                    is_bridge = (
                        u != v
                        and (min(u, v), max(u, v)) in bridge_pairs
                        and residue.multiplicity(u, v) == 1
                    )
                    if is_bridge:
                        assert t1 == t0
                    else:
                        assert t1 > t0


class TestSweep:
    """find_assignments against a brute-force box of length vectors, each
    subdivision built by the oracle's own path builder and counted by the
    Laplacian, never by the sweep's tree terms."""

    CASES = ((8, 9), (16, 11), (21, 10), (24, 11), (40, 12))

    def check(self, skel, n, budget):
        tried, hits = _Sweep(skel).find_assignments(n, budget)
        got = tried, sorted(hits)
        want = brute_subdivision_sweep(skel.vertex_count, skel.slots, n, budget, tau_matrix)
        assert got == want, (skel.describe(), n, budget)
        return got

    def test_every_skeleton_of_cyclomatic_two_and_three(self):
        tried = hits = 0
        for c in (2, 3):
            for skel in enumerate_skeletons(c):
                for n, budget in self.CASES:
                    t, h = self.check(skel, n, budget)
                    tried += t
                    hits += len(h)
        assert tried > 900 and hits > 90  # the cases reach into the sweeps

    def test_bridge_slack(self):
        # bridges do not enter the count, so the spare budget makes many
        # hits from one vector of loop lengths
        dumbbell = Skeleton(2, ((0, 0), (0, 1), (1, 1)))
        tripod = Skeleton(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)))
        two_bridges = Skeleton(3, ((0, 0), (0, 2), (1, 1), (1, 2), (2, 2)))
        for skel, bridges, n, budget in (
            (dumbbell, (1,), 9, 20),
            (dumbbell, (1,), 12, 26),
            (dumbbell, (1,), 15, 14),
            (tripod, (0, 1, 2), 27, 16),
            (tripod, (0, 1, 2), 36, 17),
            (two_bridges, (1, 3), 27, 15),
            (two_bridges, (1, 3), 36, 16),
        ):
            assert skel in enumerate_skeletons(skel.cyclomatic)
            _, hits = self.check(skel, n, budget)
            assert any(
                any(vec[i] > 1 for i in bridges) for vec in hits
            ), (skel.describe(), n, budget)


class TestOrbits:
    THETA = Skeleton(2, ((0, 1), (0, 1), (0, 1)))
    K4 = Skeleton(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    TRIPOD = Skeleton(4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)))

    def test_automorphism_counts(self):
        assert len(automorphisms(*self.THETA.residue())) == 2
        assert len(automorphisms(*self.K4.residue())) == 24
        assert len(automorphisms(*self.TRIPOD.residue())) == 6

    def test_automorphisms_against_all_permutations(self):
        for c in (2, 3, 4):
            for s in enumerate_skeletons(c):
                cells = sorted(s.slots)
                want = [
                    perm
                    for perm in permutations(range(s.vertex_count))
                    if sorted(tuple(sorted((perm[a], perm[b]))) for a, b in cells) == cells
                ]
                assert automorphisms(*s.residue()) == want, s.describe()

    def test_automorphisms_level_5_against_signature_permutations(self):
        # every permutation that keeps each vertex's (degree, loop count),
        # tried against the slot multiset
        for s in enumerate_skeletons(5):
            v = s.vertex_count
            assert v <= 8
            mult = Counter(s.slots)
            classes: dict = {}
            for x in range(v):
                classes.setdefault((s.degree(x), mult[(x, x)]), []).append(x)
            groups = list(classes.values())
            want = []
            for images in product(*(permutations(g) for g in groups)):
                perm = [0] * v
                for g, img in zip(groups, images):
                    for x, y in zip(g, img):
                        perm[x] = y
                if all(
                    mult[(perm[a], perm[b]) if perm[a] <= perm[b] else (perm[b], perm[a])] == m
                    for (a, b), m in mult.items()
                ):
                    want.append(tuple(perm))
            assert automorphisms(*s.residue()) == sorted(want), s.describe()

    @pytest.mark.parametrize(
        "name, pairs, order",
        [
            ("Q4", [(i, i ^ b) for i in range(16) for b in (1, 2, 4, 8) if i < i ^ b], 384),
            (
                "C8xK2",
                [(i, (i + 1) % 8) for i in range(8)]
                + [(8 + i, 8 + (i + 1) % 8) for i in range(8)]
                + [(i, 8 + i) for i in range(8)],
                32,
            ),
            (
                "Moebius-Kantor",
                [(i, (i + 1) % 8) for i in range(8)]
                + [(i, 8 + i) for i in range(8)]
                + [(8 + i, 8 + (i + 3) % 8) for i in range(8)],
                96,
            ),
            (
                "Petersen",
                [(i, (i + 1) % 5) for i in range(5)]
                + [(i, 5 + i) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
                120,
            ),
        ],
    )
    def test_automorphism_groups_of_cubic_skeletons(self, name, pairs, order):
        # called on the residue, not through _Sweep, whose tree terms test
        # C(24, 15) slot subsets at 16 vertices
        cells = sorted((min(a, b), max(a, b)) for a, b in pairs)
        s = Skeleton(1 + max(map(max, cells)), tuple(cells))
        group = automorphisms(*s.residue())
        assert len(group) == order, name
        assert group[0] == tuple(range(s.vertex_count))
        for perm in group:
            assert sorted(tuple(sorted((perm[a], perm[b]))) for a, b in cells) == cells

    @pytest.mark.parametrize("n", range(12, 40))
    def test_witnesses_equal_canonical_dedup(self, n):
        # the same witness edge lists, in order, as building every hit and
        # keeping each new canonical form
        for budget in (n, n + 6):
            got = verify_no_smaller_graph(n, budget).witnesses
            assert got == reference_witnesses(n, budget), (n, budget)

    @pytest.mark.parametrize("n, budget", [(12, 20), (16, 24), (24, 30), (27, 40), (36, 36)])
    def test_orbit_least_equals_whole_images(self, n, budget):
        # the slot-by-slot walk keeps the hits that comparing whole images
        # keeps; random vectors of short lengths add ties on long prefixes
        rng = random.Random(n * budget)
        swept = 0
        for c in (2, 3, 4):
            for sweep in _sweeps(c)[0]:
                if sweep.min_tau > n or sweep.min_vertices >= budget:
                    continue
                hits = sorted(sweep.find_assignments(n, budget)[1])
                vectors = [
                    tuple(rng.randint(1, 3) for _ in sweep.slots) for _ in range(20)
                ]
                for vecs in (hits, vectors):
                    assert list(sweep.orbit_least(vecs)) == image_orbit_least(sweep, vecs)
                swept += bool(hits)
        assert swept > 0

    def test_36_36_witness_count(self):
        assert len(verify_no_smaller_graph(36, 36).witnesses) == 3094


class TestWitnessCeiling:
    CASES = ((12, 20), (16, 24), (24, 30), (27, 40))

    def test_default_lists_every_tested_list(self):
        # (27, 80) holds the most vertices of any tested list
        assert WITNESS_VERTEX_CEILING >= 802_621
        assert SKELETON_CEILING == 5

    def test_default_ceiling_stops_a_growing_list(self):
        report = verify_no_smaller_graph(27, 80)
        assert len(report.witnesses) == 13_388
        assert sum(g.vertex_count for g in report.witnesses) == 802_621
        with pytest.raises(
            GraphError,
            match="^witness ceiling exceeded: the witnesses for n = 27 below budget 100 hold "
            f"more than {WITNESS_VERTEX_CEILING} vertices$",
        ):
            verify_no_smaller_graph(27, 100)

    def test_kept_vertex_total_is_the_exact_boundary(self, monkeypatch):
        # with the ceiling at the vertices kept up to and including one
        # skeleton, that skeleton is built whole; one vertex less, the room
        # runs out at it and none of its witnesses is built
        built = []

        def building(skeleton, vec):
            built.append(skeleton)
            return subdivision(skeleton, vec)

        monkeypatch.setattr(search_oracle, "subdivision", building)
        boundaries = bridged = 0
        for n, budget in self.CASES:
            monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", WITNESS_VERTEX_CEILING)
            built.clear()
            full = verify_no_smaller_graph(n, budget).to_dict()
            order = built[:]
            spent = n if n < budget else 0
            before = 0  # witnesses of the skeletons swept earlier
            for level in full["levels"]:
                sweeps = _sweeps(level["cyclomatic"])[0]
                for sweep, entry in zip(sweeps, level["skeletons"]):
                    kept = entry["witnesses"]
                    if not kept:
                        continue
                    spent += sum(w["vertices"] for w in kept)
                    monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", spent)
                    built.clear()
                    try:
                        assert verify_no_smaller_graph(n, budget).to_dict() == full
                    except GraphError:
                        pass  # at a later skeleton
                    assert len(built) >= before + len(kept) and built == order[: len(built)]
                    monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", spent - 1)
                    built.clear()
                    with pytest.raises(GraphError, match=f"more than {spent - 1} vertices$"):
                        verify_no_smaller_graph(n, budget)
                    assert built == order[:before]
                    before += len(kept)
                    boundaries += 1
                    bridged += len(sweep.bridge_idx) > 1
            assert before == len(order)
        assert boundaries == 25 and bridged > 0

    def test_raises_after_reading_few_hits(self, monkeypatch):
        # at budget 300 one two-bridge skeleton has 42,486 hits with
        # 8,596,334 vertices, and (12, 10000) has 9,996 classes with about
        # 50 million vertices. Hits are read only until the room runs out,
        # and the skeleton that runs it out builds no witness
        swept, read, built = [], [], []
        orbit_least = _Sweep.orbit_least

        def reading(sweep, hits):
            swept.append(sweep.skeleton)
            read.append(0)

            def counted():
                for vec in hits:
                    read[-1] += 1
                    yield vec

            return orbit_least(sweep, counted())

        def building(skeleton, vec):
            built.append(skeleton)
            return subdivision(skeleton, vec)

        monkeypatch.setattr(_Sweep, "orbit_least", reading)
        monkeypatch.setattr(search_oracle, "subdivision", building)
        for n, budget, most in ((27, 300, 10_000), (27, 3000, 2000), (12, 10_000, 2000)):
            for calls in (swept, read, built):
                calls.clear()
            with pytest.raises(
                GraphError,
                match=f"^witness ceiling exceeded: the witnesses for n = {n} below budget "
                f"{budget} hold more than {WITNESS_VERTEX_CEILING} vertices$",
            ):
                verify_no_smaller_graph(n, budget)
            assert 0 < sum(read) < most, (n, budget)
            assert swept[-1] not in built, (n, budget)

    def test_vertex_ceiling_above_every_tested_list(self):
        # (36, 42) holds the most vertices of the lists below budget n + 6
        report = verify_no_smaller_graph(36, 42)
        assert sum(g.vertex_count for g in report.witnesses) == 161_711
        assert WITNESS_VERTEX_CEILING > 161_711

    def test_at_the_vertex_ceiling_the_transcript_is_unchanged(self, monkeypatch):
        # (27, 27) lists 442 classes with 9,022 vertices, the 27-cycle included
        full = verify_no_smaller_graph(27, 27)
        assert sum(g.vertex_count for g in full.witnesses) == 9022
        monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", 9022)
        assert verify_no_smaller_graph(27, 27).to_dict() == full.to_dict()
        monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", 9021)
        with pytest.raises(
            GraphError,
            match="^witness ceiling exceeded: the witnesses for n = 27 below budget 27 hold "
            "more than 9021 vertices$",
        ):
            verify_no_smaller_graph(27, 27)

    def test_vertex_ceiling_raises_before_building(self, monkeypatch):
        # (12, B) lists B - 4 classes with about B**2 / 2 vertices. One
        # vertex short, the last skeleton with witnesses runs the room out
        # and builds none of them; the skeletons before it are built
        full = verify_no_smaller_graph(12, 300)
        total = sum(g.vertex_count for g in full.witnesses)
        assert (len(full.witnesses), total) == (296, 44_852)
        per_skeleton = [sk["witnesses"] for level in full.levels for sk in level["skeletons"]]
        last = [w for w in per_skeleton if w][-1]
        built = []

        def building(skeleton, vec):
            built.append(vec)
            return subdivision(skeleton, vec)

        monkeypatch.setattr(search_oracle, "subdivision", building)
        monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", total)
        assert verify_no_smaller_graph(12, 300).to_dict() == full.to_dict()
        built.clear()
        monkeypatch.setattr(search_oracle, "WITNESS_VERTEX_CEILING", total - 1)
        with pytest.raises(GraphError, match=f"more than {total - 1} vertices$"):
            verify_no_smaller_graph(12, 300)
        assert len(built) == len(full.witnesses) - 1 - len(last)


class TestVerifier:
    def test_small_fixed_points(self):
        for n in (3, 4, 5, 6, 7, 10, 13):
            report = verify_no_smaller_graph(n, n)
            assert report.proved, n

    def test_12_is_refuted_with_theta_222(self):
        report = verify_no_smaller_graph(12, 12)
        assert not report.proved
        sizes = {(g.vertex_count, g.edge_count) for g in report.witnesses}
        assert (5, 6) in sizes  # the theta graph with paths 2,2,2
        for g in report.witnesses:
            assert tau_matrix(g) == 12 and g.vertex_count < 12

    def test_transcript_structure(self):
        report = verify_no_smaller_graph(10, 10)
        d = report.to_dict()
        assert d["proved"] is True
        assert d["levels"][0]["cyclomatic"] == 2
        for level in d["levels"]:
            assert level["skeletons"], "every level lists its skeletons"
        assert "ear" in d["stop_reason"]

    @staticmethod
    def tried(report):
        return sum(
            sk["assignments_tried"]
            for level in report.levels
            for sk in level["skeletons"]
        )

    def test_transcript_counts(self):
        # pinned from the sweep that walked every vector one at a time
        report = verify_no_smaller_graph(38, 78)
        assert self.tried(report) == 247_959 and len(report.witnesses) == 3
        report = verify_no_smaller_graph(27, 27)
        assert self.tried(report) == 2_101 and len(report.witnesses) == 442

    def test_bridge_heavy_budget(self):
        # the spare budget goes to bridge lengths, which are counted, not
        # walked
        report = verify_no_smaller_graph(38, 400)
        assert report.witnesses
        for g in report.witnesses:
            assert tau_matrix(g) == 38 and g.vertex_count < 400

    def test_budget_larger_than_n_finds_cycle(self):
        report = verify_no_smaller_graph(5, 7)
        assert not report.proved
        assert any(are_isomorphic(g, cycle_graph(5)) for g in report.witnesses)

    def test_agrees_with_alpha_at_small_budgets(self):
        # a budget b <= 9 asks about graphs on at most 8 vertices, which
        # alpha_exact(n, 8) searches exhaustively by a different method
        for n in range(3, 40):
            alpha = alpha_exact(n, 8).value
            for budget in range(3, 10):
                proved = verify_no_smaller_graph(n, budget).proved
                assert proved == (alpha is None or alpha >= budget), (n, budget)

    def test_level_five_agrees_with_alpha_at_small_budgets(self):
        # from n = 40 on the proof reads level 5; route B, vertex
        # augmentation, decides the same budgets independently
        verdicts = Counter()
        for n in range(40, 75):
            for budget in (8, 9):
                proved = verify_no_smaller_graph(n, budget).proved
                assert proved == (alpha_exact(n, budget - 1).value is None), (n, budget)
                verdicts[proved] += 1
        assert verdicts == {True: 16, False: 54}

    @pytest.mark.parametrize("n", [41, 43, 46, 47, 53, 58])
    def test_level_five_witnesses_equal_canonical_dedup(self, n):
        got = verify_no_smaller_graph(n, n).witnesses
        assert 0 < len(got) <= 5
        assert got == reference_witnesses(n, n)

    def test_transcripts_and_errors_are_pinned(self):
        # the SHA-256 of every transcript, or error text, over n = 3..39 at
        # budgets n and n + 6 and the bridge-heavy and ceiling-exceeding
        # queries; the text of each query ends with a newline
        grid = [(n, b) for n in range(3, 40) for b in (n, n + 6)]
        grid += [(27, 40), (27, 100), (27, 300), (27, 3000), (12, 300), (12, 10_000)]
        grid += [(38, 76), (38, 77), (38, 78)]
        digest = hashlib.sha256()
        for n, budget in grid:
            try:
                text = json.dumps(verify_no_smaller_graph(n, budget).to_dict(), sort_keys=True)
            except GraphError as exc:
                text = str(exc)
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == (
            "6aaed86a61dfbb1279d50b9c1c414d1b1dfa06fa8166c609247eac9efc42a708"
        )

    def test_skeleton_ceiling_stops_at_75(self):
        report = verify_no_smaller_graph(74, 74)
        assert report.levels[-1]["cyclomatic"] == 5 and report.levels[-1]["min_tau"] == "75"
        with pytest.raises(GraphError, match="^n = 75 needs skeletons of cyclomatic number 6, "):
            verify_no_smaller_graph(75, 10)

    @pytest.mark.slow
    def test_22_is_a_fixed_point(self):
        report = verify_no_smaller_graph(22, 22)
        assert report.proved
        mins = [int(level["min_tau"]) for level in report.levels]
        assert mins[0] == 8 and mins[-1] > 22
        swept = sum(
            sk["assignments_tried"]
            for level in report.levels
            for sk in level["skeletons"]
        )
        assert swept > 0

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product

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
    is_two_edge_connected,
)
from treeforge.search_oracle import (
    LEVEL_CACHE_SIZE,
    SKELETON_CEILING,
    WITNESS_CEILING,
    SearchKind,
    Skeleton,
    _Sweep,
    _level,
    alpha_exact,
    beta_exact,
    clear_level_cache,
    enumerate_connected_graphs,
    enumerate_skeletons,
    verify_no_smaller_graph,
)
from treeforge.tree_count import tau_matrix

from oracles import (
    brute_isomorphic,
    brute_subdivision_sweep,
    reference_skeletons,
    reference_witnesses,
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


def test_level_cache_is_bounded():
    clear_level_cache()
    keys = [(k, cap, None) for cap in range(1, 70) for k in (2, 3, 4)]
    for key in keys:
        assert _level(*key) == reference_level(*key), key
    assert len(search_oracle._levels) == LEVEL_CACHE_SIZE
    # evicted levels are rebuilt the same
    for key in keys[:9]:
        assert _level(*key) == reference_level(*key), key
    clear_level_cache()


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
        assert min(_Sweep(s).min_tau() for s in skels) == 75

    def test_cached_per_cyclomatic_number(self):
        assert enumerate_skeletons(3) is enumerate_skeletons(3)
        assert isinstance(enumerate_skeletons(3), tuple)

    def test_min_degree_holds(self):
        for c in (2, 3, 4):
            for s in enumerate_skeletons(c):
                assert s.cyclomatic == c
                assert all(s.degree(v) >= 3 for v in range(s.vertex_count))

    def test_subdivision_tau_matches_matrix(self):
        for s in enumerate_skeletons(3):
            sweep = _Sweep(s)
            lengths = sweep.mins
            assert sweep.tau(lengths) == tau_matrix(sweep.build(lengths))
            bumped = [l + 1 for l in lengths]
            assert sweep.tau(bumped) == tau_matrix(sweep.build(bumped))

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
        got = _Sweep(skel).find_assignments(n, budget)
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
        assert len(_Sweep(self.THETA).automorphisms()) == 2
        assert len(_Sweep(self.K4).automorphisms()) == 24
        assert len(_Sweep(self.TRIPOD).automorphisms()) == 6

    def test_automorphisms_against_all_permutations(self):
        for c in (2, 3, 4):
            for s in enumerate_skeletons(c):
                cells = sorted(s.slots)
                want = [
                    perm
                    for perm in permutations(range(s.vertex_count))
                    if sorted(tuple(sorted((perm[a], perm[b]))) for a, b in cells) == cells
                ]
                assert _Sweep(s).automorphisms() == want, s.describe()

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
            assert _Sweep(s).automorphisms() == sorted(want), s.describe()

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

    def test_36_36_witness_count(self):
        assert len(verify_no_smaller_graph(36, 36).witnesses) == 3094


class TestWitnessCeiling:
    def test_default_lists_every_tested_list(self):
        # (36, 42) lists 5,094 classes, the most of any test
        assert WITNESS_CEILING > 5094
        assert SKELETON_CEILING == 4

    def test_at_the_ceiling_the_transcript_is_unchanged(self):
        # (27, 27) lists 442 classes
        full = verify_no_smaller_graph(27, 27).to_dict()
        assert verify_no_smaller_graph(27, 27, max_witnesses=442).to_dict() == full

    def test_past_the_ceiling_raises_with_the_count(self):
        with pytest.raises(GraphError, match="442 witness classes so far"):
            verify_no_smaller_graph(27, 27, max_witnesses=441)

    def test_default_ceiling_stops_a_growing_list(self):
        # (27, 80) has 13,388 classes
        with pytest.raises(GraphError, match=f"{WITNESS_CEILING + 1} witness classes"):
            verify_no_smaller_graph(27, 80)

    def test_rejects_a_ceiling_below_one(self):
        with pytest.raises(GraphError):
            verify_no_smaller_graph(13, 13, max_witnesses=0)


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

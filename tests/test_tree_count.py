from itertools import combinations, combinations_with_replacement

import pytest

from treeforge.constructions import BouquetSpec, tau_bouquet, tau_generalized_theta
from treeforge.graph_core import (
    GraphError,
    Multigraph,
    Skeleton,
    add_path,
    complete_graph,
    contract_edge,
    cycle_graph,
    delete_edge,
    path_graph,
    subdivision,
)
from treeforge import tree_count
from treeforge.minimal_builder import build_witness
from treeforge.search_oracle import _Sweep, enumerate_skeletons
from treeforge.tree_count import tau_dc, tau_matrix, tau_subdivision

from oracles import (
    brute_tau,
    fib,
    grid_graph,
    random_connected_multigraph,
    random_multigraph,
    shuffled,
    skeleton_of,
    square_of_cycle,
)

THETA = Skeleton(2, ((0, 1),) * 3)


def spy_dense_tail(monkeypatch) -> list[int]:
    """Record the size of every block tau_matrix finishes densely."""
    blocks = []
    dense = tree_count._dense_bareiss

    def spy(block, prev):
        blocks.append(len(block))
        return dense(block, prev)

    monkeypatch.setattr(tree_count, "_dense_bareiss", spy)
    return blocks


class TestTauMatrix:
    def test_known_values(self):
        assert tau_matrix(complete_graph(4)) == 16
        assert tau_matrix(Multigraph(1, ())) == 1
        assert tau_matrix(complete_graph(7)) == 7**5

    def test_cayley(self):
        for n in range(2, 10):
            assert tau_matrix(complete_graph(n)) == n ** (n - 2)

    def test_disconnected_is_zero(self):
        assert tau_matrix(Multigraph(3, ((0, 1, 1),))) == 0

    def test_matches_bruteforce(self, rng):
        for _ in range(200):
            g = random_connected_multigraph(rng, max_vertices=6, extra_edges=3)
            assert tau_matrix(g) == brute_tau(g)

    def test_disconnected_with_many_edges_is_zero(self):
        # enough adjacent pairs to pass the edge-count shortcut: the ring
        # collapses to a vertex that is isolated while K_6 is live
        k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        ring = [(6 + i, 6 + (i + 1) % 10) for i in range(10)]
        assert tau_matrix(Multigraph.from_edges(16, k6 + ring)) == 0
        # the same two components with interleaved labels
        k6 = [(2 * u, 2 * v) for u, v in k6]
        ring = [(2 * i + 1, 2 * ((i + 1) % 6) + 1) for i in range(6)]
        assert tau_matrix(Multigraph.from_edges(12, k6 + ring)) == 0

    def test_isolated_vertex_is_zero(self):
        k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        # the reduction finds the isolated vertex whatever its label
        assert tau_matrix(Multigraph.from_edges(7, [(u + 1, v + 1) for u, v in k6])) == 0
        assert tau_matrix(Multigraph.from_edges(7, k6)) == 0

    def test_too_few_pairs_builds_no_rows(self):
        # a million-vertex header with one edge answers before any row exists
        assert tau_matrix(Multigraph(10**6, ((0, 1, 1),))) == 0

    def test_too_few_pairs_dc_builds_no_adjacency(self):
        # deletion-contraction answers before the connectivity check too
        assert tau_dc(Multigraph(10**6, ((0, 1, 1),))) == 0

    def test_relabeling_invariance(self, rng):
        # pivot ties depend on the labels, so relabeling changes the
        # elimination but never the count
        for _ in range(40):
            g = random_connected_multigraph(rng, max_vertices=60, extra_edges=15)
            expected = tau_matrix(g)
            assert expected > 0
            perm = list(range(g.vertex_count))
            for _ in range(4):
                rng.shuffle(perm)
                assert tau_matrix(g.relabeled(perm)) == expected

    def test_long_cycle_and_theta(self, rng):
        # linear elimination under any labelling: these take tens of seconds
        # with a quadratic pivot scan, and the shuffled theta's pivots grew
        # to hundreds of bits when ties went to the lowest label
        theta = subdivision(THETA, [3000, 3000, 3000])
        for g, expected in ((cycle_graph(20000), 20000), (theta, 3 * 3000**2)):
            assert tau_matrix(g) == expected
            assert tau_matrix(shuffled(g, rng)) == expected
        grid = grid_graph(16, 16)
        assert tau_matrix(shuffled(grid, rng)) == tau_matrix(grid)

    def test_dense_tail_closed_forms(self, monkeypatch):
        blocks = spy_dense_tail(monkeypatch)
        floor = tree_count.DENSE_TAIL_MIN
        # lambda * K_n is one complete block from the first pivot on
        for lam in (1, 2, 3):
            for n in range(2, 12):
                blocks.clear()
                g = Multigraph.from_edges(n, [(u, v, lam) for u, v in combinations(range(n), 2)])
                assert tau_matrix(g) == lam ** (n - 1) * n ** (n - 2)
                assert blocks == ([n - 1] if n - 1 >= floor else [])
        # K_{m,n} fills in to a complete block once its smaller side is
        # gone; with a side of at most two vertices the other side's
        # vertices have at most two neighbours, so the graph collapses
        # before any elimination
        for m in range(1, 10):
            for n in range(1, 10):
                blocks.clear()
                g = Multigraph.from_edges(m + n, [(u, m + v) for u in range(m) for v in range(n)])
                assert tau_matrix(g) == m ** (n - 1) * n ** (m - 1)
                assert len(blocks) <= 1
                assert blocks or min(m, n) < floor

    def test_two_disjoint_k5_leave_a_singular_dense_block(self, monkeypatch):
        # the K_5 holding vertex 0 goes first; the other is left as a
        # complete block of five rows whose last pivot is 0
        blocks = spy_dense_tail(monkeypatch)
        k5 = list(combinations(range(5), 2))
        g = Multigraph.from_edges(10, k5 + [(u + 5, v + 5) for u, v in k5])
        assert tau_matrix(g) == 0
        assert blocks == [5]

    def test_random_multigraphs_match_bruteforce(self, rng, monkeypatch):
        # disconnected graphs and multiplicities up to 3 reach the zero
        # diagonals of both pivot choices; a floor of 1 sends every complete
        # block an elimination reaches, singular ones included, through the
        # dense tail
        graphs = [random_multigraph(rng) for _ in range(2000)]
        expected = [brute_tau(g) for g in graphs]
        assert sum(t == 0 for t in expected) > 500
        assert sum(m > 1 for g in graphs for _, _, m in g.edges) > 500
        for floor in (tree_count.DENSE_TAIL_MIN, 1):
            monkeypatch.setattr(tree_count, "DENSE_TAIL_MIN", floor)
            assert [tau_matrix(g) for g in graphs] == expected
        # keys stay sound within each call, over all 2,000 graphs: a key that
        # lost a weight placement would hand one core's count to another
        assert [tau_dc(g) for g in graphs] == expected

    def test_large_sparse_subdivision(self):
        # a long subdivided theta: near-linear elimination must stay exact
        g = subdivision(THETA, [60, 70, 81])
        assert g.vertex_count == 2 + 59 + 69 + 80
        assert tau_matrix(g) == 60 * 70 + 60 * 81 + 70 * 81


def spy_core(monkeypatch) -> list[dict]:
    """Record a copy of every reduced core tau_matrix hands to Bareiss."""
    cores = []
    cofactor = tree_count._core_cofactor

    def spy(adj):
        cores.append({x: dict(nb) for x, nb in adj.items()})
        return cofactor(adj)

    monkeypatch.setattr(tree_count, "_core_cofactor", spy)
    return cores


K4 = [(u, v) for u, v in combinations(range(4), 2)]


class TestKronReduction:
    def test_pendant_trees_with_multiplicities(self, rng, monkeypatch):
        # every edge of a tree is a bridge, so tau is the product of the
        # multiplicities, and nothing reaches the elimination
        cores = spy_core(monkeypatch)
        for n in range(2, 30):
            mults = [rng.randint(1, 4) for _ in range(n - 1)]
            path = Multigraph.from_edges(n, [(i, i + 1, m) for i, m in enumerate(mults)])
            tree = Multigraph.from_edges(n, [(rng.randrange(v), v, m) for v, m in enumerate(mults, 1)])
            product = 1
            for m in mults:
                product *= m
            for g in (path, tree, shuffled(tree, rng)):
                assert tau_matrix(g) == product
        assert cores == []

    def test_chain_with_multiplicities_between_two_k4(self, rng):
        # the chain is a path of bridges: a factor of 16 per K_4 and the
        # product of the chain's multiplicities
        for length in (1, 2, 5):
            mults = [rng.randint(1, 3) for _ in range(length)]
            path = [3, *range(8, 8 + length - 1), 4]
            pairs = K4 + [(u + 4, v + 4) for u, v in K4]
            pairs += [(a, b, m) for a, b, m in zip(path, path[1:], mults)]
            g = Multigraph.from_edges(8 + length - 1, pairs)
            product = 1
            for m in mults:
                product *= m
            assert tau_matrix(g) == 16 * 16 * product
            assert tau_matrix(shuffled(g, rng)) == 16 * 16 * product

    def test_parallel_chains_between_one_pair(self, rng):
        # chains merge into one pair: the generalized theta, and with
        # multiplicities the brute-force count
        for lengths in ((1, 2), (2, 2, 3), (1, 3, 4, 5), (2, 2, 2, 2, 2)):
            g = Multigraph.from_edges(2, [])
            for k in lengths:
                g = add_path(g, 0, 1, k)
            assert tau_matrix(g) == tau_generalized_theta(lengths)
            assert tau_matrix(shuffled(g, rng)) == tau_generalized_theta(lengths)
        for _ in range(30):
            pairs, nxt = [], 2
            for _ in range(rng.randint(2, 4)):
                inner = rng.randint(0, 2)
                path = [0, *range(nxt, nxt + inner), 1]
                nxt += inner
                pairs += [(a, b, rng.randint(1, 3)) for a, b in zip(path, path[1:])]
            g = Multigraph.from_edges(nxt, pairs)
            assert tau_matrix(g) == brute_tau(g)

    def test_cycle_hanging_at_one_vertex(self, rng):
        # a cycle sharing one vertex with K_4 is a second block: 16 k
        for k in (3, 4, 10, 101):
            cycle = [(3, 4), *((i, i + 1) for i in range(4, k + 2)), (k + 2, 3)]
            g = Multigraph.from_edges(k + 3, K4 + cycle)
            assert tau_matrix(g) == 16 * k
            assert tau_matrix(shuffled(g, rng)) == 16 * k
        g = Multigraph.from_edges(6, K4 + [(3, 4, 2), (4, 5, 3), (5, 3)])
        assert tau_matrix(g) == 16 * brute_tau(Multigraph.from_edges(3, [(0, 1, 2), (1, 2, 3), (2, 0)]))

    def test_reduction_disconnects(self, monkeypatch):
        # each component collapses to one vertex, or one stays a core
        cores = spy_core(monkeypatch)
        triangle = [(0, 1), (1, 2), (0, 2)]
        two_triangles = triangle + [(u + 3, v + 3) for u, v in triangle]
        assert tau_matrix(Multigraph.from_edges(6, two_triangles)) == 0
        assert tau_matrix(Multigraph.from_edges(4, triangle)) == 0
        assert tau_matrix(Multigraph.from_edges(4, [(u + 1, v + 1) for u, v in triangle])) == 0
        assert tau_matrix(Multigraph.from_edges(7, K4 + [(u + 4, v + 4) for u, v in triangle])) == 0
        assert cores == []
        # two K_4: nothing reduces, and the sparse elimination meets a zero
        assert tau_matrix(Multigraph.from_edges(8, K4 + [(u + 4, v + 4) for u, v in K4])) == 0
        assert len(cores) == 1

    def test_root_moves_out_of_a_pendant_tree(self, monkeypatch):
        # vertex 0 hangs off K_4 on 1..4 through 5, or lies on a chain
        # 1-0-5-2 that merges into the pair 1-2; either way the core's least
        # label, 1, is the deleted root
        cores = spy_core(monkeypatch)
        k4 = [(u + 1, v + 1) for u, v in K4]
        assert tau_matrix(Multigraph.from_edges(6, k4 + [(0, 5), (5, 1)])) == 16
        assert tau_matrix(Multigraph.from_edges(6, k4 + [(0, 5, 2), (5, 1, 3)])) == 16 * 6
        chain = Multigraph.from_edges(6, k4 + [(0, 1), (0, 5, 2), (5, 2, 3)])
        assert tau_matrix(chain) == brute_tau(chain)
        assert [min(c) for c in cores] == [1, 1, 1]

    def test_core_with_scaled_pivots(self, rng, monkeypatch):
        # the corners of a grid collapse into edges of conductance 1/2, so
        # the core's sentinel pivot P is 16
        cores = spy_core(monkeypatch)
        grid_counts = {(3, 3): 192, (3, 4): 2415, (4, 4): 100352, (5, 5): 557568000}
        for (r, c), expected in grid_counts.items():
            cores.clear()
            assert tau_matrix(grid_graph(r, c)) == expected
            assert tau_matrix(shuffled(grid_graph(r, c), rng)) == expected
            for core in cores:
                scaled = [f for u, nb in core.items() for v, (_, f) in nb.items() if u < v and f > 1]
                assert scaled == [2] * 4

    def test_core_has_minimum_degree_three(self, rng, monkeypatch):
        # the counts are checked against brute force elsewhere; here, what
        # reaches the elimination
        cores = spy_core(monkeypatch)
        for _ in range(300):
            tau_matrix(random_connected_multigraph(rng, max_vertices=30, extra_edges=20))
        assert len(cores) > 100
        assert all(min(len(nb) for nb in core.values()) >= 3 for core in cores)

    def test_independent_of_deletion_contraction(self, rng, monkeypatch):
        # tau_matrix reduces with its own code: with tau_dc's reducer, edge
        # merge and block split, and canonical forms, all raising, it still counts
        def forbidden(*args, **kwargs):
            raise AssertionError("tau_matrix used code it is meant to check")

        graphs = [random_multigraph(rng) for _ in range(300)]
        expected = [brute_tau(g) for g in graphs]
        witnesses = [shuffled(build_witness(n).graph, rng) for n in range(3, 301)]
        for name in ("_reduce", "_join", "_blocks", "canonical_form", "biconnected_components"):
            monkeypatch.setattr(tree_count, name, forbidden)
        assert [tau_matrix(g) for g in graphs] == expected
        assert [tau_matrix(g) for g in witnesses] == list(range(3, 301))
        with pytest.raises(AssertionError):
            tau_dc(square_of_cycle(6))


class TestTauDC:
    def test_cycle(self):
        assert tau_dc(cycle_graph(5)) == 5

    def test_banana(self):
        assert tau_dc(Multigraph.from_edges(2, [(0, 1, 3)])) == 3

    def test_square_of_cycle_product_form(self):
        # tau(C_n^2) = n * F_n^2; C_5^2 = K_5 pins the square: 125 = 5 * 25
        for n in range(5, 13):
            g = square_of_cycle(n)
            expected = n * fib(n) ** 2
            assert tau_matrix(g) == expected
            assert tau_dc(g) == expected

    def test_agrees_with_matrix_random(self, rng):
        for _ in range(150):
            g = random_connected_multigraph(rng, max_vertices=7)
            assert tau_dc(g) == tau_matrix(g)

    def test_ceiling_independent_of_earlier_calls(self, rng, monkeypatch):
        # the 5x5 grid meets exactly 1,634 labelled cores in every call:
        # first, right after counting the grid, and after counting others
        grid = grid_graph(5, 5)
        expected = tau_matrix(grid)
        others = [random_connected_multigraph(rng, max_vertices=7) for _ in range(20)]
        for before in ([], [grid], others):
            for g in before:
                assert tau_dc(g) == tau_matrix(g)
            monkeypatch.setattr(tree_count, "DC_CORE_CEILING", 1633)
            with pytest.raises(GraphError, match="matrix method"):
                tau_dc(grid)
            monkeypatch.setattr(tree_count, "DC_CORE_CEILING", 1634)
            assert tau_dc(grid) == expected

    def test_independent_of_matrix_and_canonical_form(self, rng, monkeypatch):
        # tau_dc keys its memo on the labelled core and splits blocks on its
        # own dicts: with canonical_form, biconnected_components and
        # tau_matrix's reduction and elimination all raising, it still counts
        def forbidden(*args, **kwargs):
            raise AssertionError("tau_dc used code it is meant to check")

        graphs = [random_multigraph(rng) for _ in range(300)]
        expected = [brute_tau(g) for g in graphs]
        for name in ("canonical_form", "biconnected_components", "_kron_reduce", "_core_cofactor"):
            monkeypatch.setattr(tree_count, name, forbidden)
        assert [tau_dc(g) for g in graphs] == expected
        with pytest.raises(AssertionError):
            tau_matrix(square_of_cycle(6))

    def test_disconnected_is_zero(self):
        assert tau_dc(Multigraph(4, ((0, 1, 1), (2, 3, 1)))) == 0

    def test_long_path_strips_in_linear_time(self, recursion_limit):
        # the pendant and series rules reduce these to one vertex without
        # recursing: a path, a cycle, a theta and a bouquet of triangles
        theta = subdivision(THETA, [3000] * 3)
        bouquet = Multigraph.from_edges(
            2001, [e for i in range(1, 2001, 2) for e in ((0, i), (i, i + 1), (i + 1, 0))]
        )
        recursion_limit(150)
        assert tau_dc(path_graph(5000)) == 1
        assert tau_dc(cycle_graph(100000)) == 100000
        assert tau_dc(theta) == 3 * 3000**2
        assert tau_dc(bouquet) == 3**1000

    def test_pendant_trees_on_a_cycle(self, rng):
        # random trees, some edges doubled or tripled, hung off a cycle with
        # a chord bundle; shuffled labels put the leaves anywhere
        for _ in range(150):
            k = rng.randint(3, 6)
            pairs = [(i, (i + 1) % k, 1) for i in range(k)]
            if rng.random() < 0.5:
                pairs.append((0, 2, rng.randint(1, 3)))
            n = k + rng.randint(1, 8)
            for v in range(k, n):
                pairs.append((rng.randrange(v), v, rng.choice((1, 1, 2, 3))))
            perm = list(range(n))
            rng.shuffle(perm)
            g = Multigraph.from_edges(n, [(perm[u], perm[v], m) for u, v, m in pairs])
            assert tau_dc(g) == tau_matrix(g)


class TestRecurrence:
    def test_deletion_contraction_identity(self, rng):
        for _ in range(300):
            g = random_connected_multigraph(rng, max_vertices=6)
            u, v, _ = g.edges[rng.randrange(len(g.edges))]
            assert tau_matrix(g) == tau_matrix(delete_edge(g, u, v)) + tau_matrix(
                contract_edge(g, u, v)
            )

    def test_edge_addition_lower_bound(self, rng):
        # the two-tree argument needs the new edge to close a cycle of
        # length >= 3, so sample non-adjacent endpoints
        found = 0
        while found < 200:
            g = random_connected_multigraph(rng, max_vertices=6)
            if g.vertex_count < 3:
                continue
            u, v = rng.sample(range(g.vertex_count), 2)
            if g.multiplicity(u, v):
                continue
            found += 1
            assert tau_matrix(add_path(g, u, v, 1)) >= tau_matrix(g) + 2

    def test_path_addition_lower_bound(self, rng):
        for _ in range(200):
            g = random_connected_multigraph(rng, max_vertices=6)
            u = rng.randrange(g.vertex_count)
            v = rng.randrange(g.vertex_count)
            k = rng.randint(2, 5)
            assert tau_matrix(add_path(g, u, v, k)) >= k * tau_matrix(g)


def glue_at_vertex(g1, g2):
    """Identify vertex 0 of both graphs (block composition)."""
    off = g1.vertex_count
    pairs = list(g1.edges)
    for u, v, m in g2.edges:
        mu = 0 if u == 0 else u + off - 1
        mv = 0 if v == 0 else v + off - 1
        pairs.append((mu, mv, m))
    return Multigraph.from_edges(off + g2.vertex_count - 1, pairs)


def test_block_multiplicativity(rng):
    for _ in range(100):
        b1 = random_connected_multigraph(rng, max_vertices=5)
        b2 = random_connected_multigraph(rng, max_vertices=5)
        g = glue_at_vertex(b1, b2)
        assert tau_matrix(g) == tau_matrix(b1) * tau_matrix(b2)
        assert tau_dc(g) == tau_dc(b1) * tau_dc(b2)


class TestTauSubdivision:
    def test_doubled_edge_is_cycle(self):
        sk = Skeleton(2, ((0, 1),) * 2)
        for a, b in [(1, 2), (3, 4), (5, 5)]:
            assert tau_subdivision(sk, [a, b]) == a + b

    def test_tripled_edge_is_theta(self):
        for a, b, c in [(1, 2, 2), (2, 3, 4), (3, 3, 28)]:
            assert tau_subdivision(THETA, [a, b, c]) == a * b + a * c + b * c

    def test_k4_all_lengths_two(self):
        k4 = skeleton_of(complete_graph(4))
        lengths = [2] * 6
        assert tau_subdivision(k4, lengths) == tau_matrix(subdivision(k4, lengths))

    def test_matches_explicit_subdivision(self, rng):
        for _ in range(300):
            sk = skeleton_of(
                random_connected_multigraph(rng, max_vertices=5, extra_edges=3, max_mult=2)
            )
            lengths = [rng.randint(1, 4) for _ in sk.slots]
            assert tau_subdivision(sk, lengths) == tau_matrix(subdivision(sk, lengths))

    def test_loop_skeletons_are_bouquets(self):
        for lengths in [(3,), (3, 4), (3, 4, 5), (5, 3, 7, 4)]:
            sk = Skeleton(1, ((0, 0),) * len(lengths))
            expected = tau_bouquet(BouquetSpec(lengths))
            assert tau_subdivision(sk, lengths) == expected
            assert tau_matrix(subdivision(sk, lengths)) == expected

    def test_parallel_slots_are_generalized_thetas(self):
        for lengths in [(1, 2), (2, 3, 4), (1, 2, 3, 4), (2, 2, 5, 3, 7)]:
            sk = Skeleton(2, ((0, 1),) * len(lengths))
            assert tau_subdivision(sk, lengths) == tau_generalized_theta(lengths)

    def test_enumerated_skeletons_match_matrix(self, rng):
        # every skeleton of levels 2-4, at admissible (simple) lengths
        for c in (2, 3, 4):
            for sk in enumerate_skeletons(c):
                sweep = _Sweep(sk)
                lengths = [l + rng.randint(0, 3) for l in sweep.mins]
                assert tau_subdivision(sk, lengths) == sweep.tau(lengths)
                assert tau_subdivision(sk, lengths) == tau_matrix(subdivision(sk, lengths))

    def test_wrong_length_count_errors(self):
        with pytest.raises(GraphError, match="2 lengths for 3 edge slots"):
            tau_subdivision(THETA, [2, 3])
        with pytest.raises(GraphError, match="2 lengths for 3 edge slots"):
            subdivision(THETA, [2, 3])

    def test_short_length_errors(self):
        with pytest.raises(GraphError, match=">= 1"):
            tau_subdivision(THETA, [2, 0, 3])

    def test_disconnected_skeleton_errors(self):
        sk = Skeleton(3, ((0, 1), (0, 1), (2, 2)))
        with pytest.raises(GraphError, match="connected"):
            tau_subdivision(sk, [2, 3, 3])

    def test_bad_slots_rejected(self):
        for slots in [((1, 0),), ((0, 2),), ((-1, 0),), ((0, 1), (2, 1))]:
            with pytest.raises(GraphError, match="slot"):
                Skeleton(2, slots)


@pytest.mark.slow
def test_exhaustive_cross_validation_small():
    """tau_matrix == tau_dc on every connected multigraph with <= 5 vertices
    and total multiplicity <= 7 (acceptance runs the full <= 6 / <= 9 sweep)."""
    from treeforge.graph_core import canonical_form
    from treeforge.search_oracle import enumerate_connected_graphs

    seen = set()
    for v in range(1, 6):
        for base in enumerate_connected_graphs(v):
            slots = [(u, w) for u, w, _ in base.edges]
            e = len(slots)
            if e > 7:
                continue
            for extra in range(0, 7 - e + 1):
                for assignment in combinations_with_replacement(range(e), extra) if e else [()]:
                    mult = [1] * e
                    for i in assignment:
                        mult[i] += 1
                    g = Multigraph.from_edges(
                        v, [(u, w, m) for (u, w), m in zip(slots, mult)]
                    )
                    key = canonical_form(g)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert tau_matrix(g) == tau_dc(g)


def test_tau_dc_concurrent_callers():
    # a memo table per call: correct values, no contention or deadlock
    from concurrent.futures import ThreadPoolExecutor

    graphs = [complete_graph(5), cycle_graph(9), square_of_cycle(6)]
    expected = [tau_matrix(g) for g in graphs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(tau_dc, graphs * 8))
    assert results == expected * 8

import gc
import random

import pytest
from hypothesis import given, strategies as st

from treeforge.graph_core import (
    GraphError,
    Multigraph,
    Skeleton,
    add_path,
    are_isomorphic,
    automorphisms,
    biconnected_components,
    bridges,
    canonical_form,
    complete_graph,
    contract_edge,
    cycle_graph,
    delete_edge,
    first_leaf,
    is_simple,
    is_two_edge_connected,
    path_graph,
    subdivision,
)
from treeforge.constructions import (
    BouquetSpec,
    ThetaSpec,
    build_bouquet,
    build_cycle_glue,
    build_generalized_theta,
    build_theta,
)
from treeforge.search_oracle import enumerate_skeletons
from treeforge.tree_count import tau_matrix

from oracles import (
    brute_isomorphic,
    brute_tau,
    random_connected_multigraph,
    random_simple_connected,
    shuffled,
    subdivision_via_edges,
)


def doubled_edge():
    return Multigraph.from_edges(2, [(0, 1, 2)])


class TestConstruction:
    def test_from_edges_accumulates(self):
        g = Multigraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert g.multiplicity(0, 1) == 2
        assert g.edge_count == 3

    def test_rejects_loops(self):
        with pytest.raises(GraphError):
            Multigraph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Multigraph.from_edges(2, [(0, 2)])


class TestDeleteEdge:
    def test_triangle_becomes_path(self):
        g = delete_edge(cycle_graph(3), 0, 1)
        assert g.vertex_count == 3 and g.edge_count == 2
        assert are_isomorphic(g, path_graph(3))

    def test_doubled_edge_decrements(self):
        g = delete_edge(doubled_edge(), 0, 1)
        assert g.edges == ((0, 1, 1),)

    def test_c4_tau_drops_to_one(self):
        g = delete_edge(cycle_graph(4), 0, 1)
        assert brute_tau(cycle_graph(4)) == 4
        assert brute_tau(g) == 1

    def test_absent_edge(self):
        with pytest.raises(GraphError, match="not present"):
            delete_edge(cycle_graph(4), 0, 2)


class TestContractEdge:
    def test_triangle_gives_doubled_edge(self):
        g = contract_edge(cycle_graph(3), 0, 1)
        assert g.vertex_count == 2
        assert g.edges == ((0, 1, 2),)

    def test_c4_gives_triangle(self):
        assert are_isomorphic(contract_edge(cycle_graph(4), 0, 1), cycle_graph(3))

    def test_doubled_edge_drops_loop(self):
        g = contract_edge(doubled_edge(), 0, 1)
        assert g.vertex_count == 1 and g.edges == ()

    def test_merged_vertex_takes_min_slot(self):
        # path 0-1-2: contracting (1,2) keeps 0-1
        g = contract_edge(path_graph(3), 1, 2)
        assert g.edges == ((0, 1, 1),)

    def test_absent_edge(self):
        with pytest.raises(GraphError, match="not present"):
            contract_edge(path_graph(3), 0, 2)


class TestAddPath:
    def test_parallel_edge(self):
        g = add_path(cycle_graph(3), 0, 1, 1)
        assert g.multiplicity(0, 1) == 2
        assert brute_tau(g) == 5  # tau(C3) + tau(2-cycle after contraction)

    def test_theta_122(self):
        g = add_path(cycle_graph(3), 0, 1, 2)
        assert g.vertex_count == 4 and g.edge_count == 5
        assert brute_tau(g) == 8

    def test_closed_path_makes_cycle(self):
        g = add_path(Multigraph(1, ()), 0, 0, 3)
        assert are_isomorphic(g, cycle_graph(3))

    def test_loop_forbidden(self):
        with pytest.raises(GraphError, match="loop"):
            add_path(cycle_graph(3), 1, 1, 1)

    def test_counts(self):
        g = cycle_graph(5)
        h = add_path(g, 0, 2, 4)
        assert h.vertex_count == g.vertex_count + 3
        assert h.edge_count == g.edge_count + 4


class TestSubdivision:
    def _check(self, skeleton, lengths):
        """subdivision equals the route through from_edges, repr included,
        and its triples are already what from_edges makes of them."""
        try:
            want = subdivision_via_edges(skeleton, lengths)
        except GraphError as exc:  # a loop of length 1, with the same text
            with pytest.raises(GraphError) as got:
                subdivision(skeleton, lengths)
            assert str(got.value) == str(exc)
            return None
        g = subdivision(skeleton, lengths)
        assert g == want and repr(g) == repr(want)
        assert Multigraph.from_edges(g.vertex_count, g.edges) == g
        return g

    def test_matches_edge_route_on_every_small_skeleton(self):
        rng = random.Random(2801)
        seen = set()
        for c in (2, 3, 4):
            for skeleton in enumerate_skeletons(c):
                for _ in range(30):
                    lengths = [rng.randint(1, 6) for _ in skeleton.slots]
                    g = self._check(skeleton, lengths)
                    if g is None:
                        seen.add("loop of length 1")
                        continue
                    for (u, v), k in zip(skeleton.slots, lengths):
                        if k == 1 and skeleton.slots.count((u, v)) > 1:
                            if g.multiplicity(u, v) > 1:
                                seen.add("parallel slots of length 1")
                        elif k == 2 and u == v:
                            seen.add("loop of length 2")
        assert seen == {"loop of length 1", "parallel slots of length 1", "loop of length 2"}

    def test_parallel_slots_and_short_loops_add_up(self):
        theta = Skeleton(2, ((0, 1),) * 3)
        assert self._check(theta, [1, 1, 1]) == Multigraph(2, ((0, 1, 3),))
        assert self._check(theta, [1, 3, 1]).edges == ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 1))
        bouquet = Skeleton(1, ((0, 0),) * 3)
        assert self._check(bouquet, [2, 4, 2]).edges == (
            (0, 1, 2), (0, 2, 1), (0, 4, 1), (0, 5, 2), (2, 3, 1), (3, 4, 1)
        )
        # partners of a hub are sorted: a length-1 slot after a long one
        mixed = Skeleton(3, ((0, 2), (0, 1), (1, 2), (0, 0)))
        assert self._check(mixed, [3, 1, 2, 3]).edges == (
            (0, 1, 1), (0, 3, 1), (0, 6, 1), (0, 7, 1),
            (1, 5, 1), (2, 4, 1), (2, 5, 1), (3, 4, 1), (6, 7, 1),
        )

    def test_witness_families_match_edge_route(self):
        rng = random.Random(2802)
        for _ in range(200):
            a, b, c = (rng.randint(1, 40) for _ in range(3))
            if [a, b, c].count(1) <= 1:
                assert build_theta(ThetaSpec(a, b, c)) == subdivision_via_edges(
                    Skeleton(2, ((0, 1),) * 3), [a, b, c]
                )
            cycles = [rng.randint(3, 40) for _ in range(rng.randint(1, 5))]
            assert build_bouquet(BouquetSpec(tuple(cycles))) == subdivision_via_edges(
                Skeleton(1, ((0, 0),) * len(cycles)), cycles
            )
            glue = [rng.randint(3, 40), rng.randint(3, 40)]
            bouquet = Skeleton(1, ((0, 0),) * 2)
            assert build_cycle_glue(*glue) == subdivision_via_edges(bouquet, glue)
            paths = [rng.randint(2, 30) for _ in range(rng.randint(3, 7))]
            paths[0] = rng.choice((1, paths[0]))
            assert build_generalized_theta(paths) == subdivision_via_edges(
                Skeleton(2, ((0, 1),) * len(paths)), paths
            )
        theta = subdivision(Skeleton(2, ((0, 1),) * 3), [150, 150, 150])
        assert theta == subdivision_via_edges(Skeleton(2, ((0, 1),) * 3), [150, 150, 150])

    def test_loop_of_length_one_rejected(self):
        for skeleton, lengths in (
            (Skeleton(1, ((0, 0),)), [1]),
            (Skeleton(3, ((0, 1), (1, 2), (2, 2), (0, 2))), [2, 1, 1, 4]),
        ):
            u = next(a for (a, b), k in zip(skeleton.slots, lengths) if a == b and k == 1)
            with pytest.raises(GraphError, match=f"^loop at vertex {u} not allowed$"):
                subdivision(skeleton, lengths)
            self._check(skeleton, lengths)

    def test_bad_skeletons_and_lengths_rejected(self):
        with pytest.raises(GraphError, match="nonnegative"):
            Skeleton(-1, ())
        with pytest.raises(GraphError, match="slot"):
            Skeleton(2, ((0, 2),))
        with pytest.raises(GraphError, match="lengths"):
            subdivision(Skeleton(2, ((0, 1),) * 3), [1, 2])
        with pytest.raises(GraphError, match=">= 1"):
            subdivision(Skeleton(2, ((0, 1),) * 3), [1, 2, 0])
        assert subdivision(Skeleton(0, ()), []) == Multigraph(0, ())
        assert subdivision(Skeleton(3, ()), []) == Multigraph(3, ())


class TestCanonicalForm:
    def test_relabelled_c4_equal(self):
        a = cycle_graph(4)
        b = Multigraph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert canonical_form(a) == canonical_form(b)

    def test_c4_vs_p4_distinct(self):
        assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))

    def test_theta_122_is_k4_minus_edge(self):
        theta = add_path(cycle_graph(3), 0, 1, 2)
        k4e = delete_edge(complete_graph(4), 2, 3)
        assert canonical_form(theta) == canonical_form(k4e)

    def test_random_relabeling_invariance(self, rng):
        for _ in range(300):
            g = random_connected_multigraph(rng, max_vertices=7)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabeled(perm))

    def test_matches_brute_isomorphism(self, rng):
        # equal keys iff isomorphic, exercised on pairs of small graphs
        pool = [random_connected_multigraph(rng, max_vertices=5) for _ in range(60)]
        for i in range(0, len(pool) - 1, 2):
            g, h = pool[i], pool[i + 1]
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)

    def test_leaves_no_cyclic_garbage(self):
        # the search's closure is unbound on return, so reference counting
        # frees it; on this theta it held 1,825 objects per call
        theta = build_generalized_theta([150, 150, 151])
        gc.collect()
        gc.disable()
        try:
            canonical_form(theta)
            assert gc.collect() == 0
            automorphisms(theta)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_complete_graph_symmetry(self):
        # worst case for the individualization search
        g = complete_graph(7)
        perm = [3, 5, 0, 6, 1, 2, 4]
        assert canonical_form(g) == canonical_form(g.relabeled(perm))

    def test_colors_distinguish(self):
        g = cycle_graph(4)
        assert canonical_form(g, [0, 0, 1, 1]) != canonical_form(g, [0, 1, 0, 1])

    def test_matches_colored_brute_isomorphism(self, rng):
        # keys compare color values, not just their order: [0, 2] and [0, 1]
        # color the same graph differently
        def colored(n):
            pairs = [
                (u, v, rng.choice((1, 1, 2)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            return Multigraph.from_edges(n, pairs), [rng.choice((0, 1, 2)) for _ in range(n)]

        agree = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            g, gc = colored(n)
            if rng.random() < 0.5:
                h, hc = colored(n)
            else:  # an isomorphic copy, sometimes with one color changed
                perm = list(range(n))
                rng.shuffle(perm)
                h = g.relabeled(perm)
                hc = [0] * n
                for v in range(n):
                    hc[perm[v]] = gc[v]
                if rng.random() < 0.3:
                    hc[rng.randrange(n)] = rng.choice((0, 1, 2))
            iso = brute_isomorphic(g, h, gc, hc)
            assert (canonical_form(g, gc) == canonical_form(h, hc)) == iso
            agree += iso
        assert agree > 100  # both outcomes are exercised

    def test_long_cycles_theta_and_star_relabeling(self, rng):
        # refinement splits a cycle only from an individualized vertex, so
        # these are the individualization search's deep cases; a star's
        # leaves are all twins, so only automorphism pruning keeps it small
        cycle = cycle_graph(300)
        theta = add_path(cycle_graph(200), 0, 100, 100)  # Theta(100, 100, 100)
        two_cycles = Multigraph.from_edges(
            300, [(i, (i + 1) % 150 + 150 * (i >= 150)) for i in range(300)]
        )
        star = Multigraph.from_edges(81, [(0, i) for i in range(1, 81)])
        keys = []
        for g in (cycle, theta, two_cycles, star):
            key = canonical_form(g)
            perm = list(range(g.vertex_count))
            for _ in range(3):
                rng.shuffle(perm)
                assert canonical_form(g.relabeled(perm)) == key
            keys.append(key)
        assert len(set(keys)) == 4  # C_300 and 2 C_150 are both 2-regular

    def test_stars_and_shuffled_graphs_match_brute_isomorphism(self, rng):
        # a star with parallel edges meets an automorphism for every pair of
        # twin leaves, and each joins orbits in its ancestors' cells; the
        # other side is a shuffled copy, in half the cases with one edge
        # moved to a new endpoint, so that some pairs are not isomorphic
        def star(k):
            return Multigraph.from_edges(
                k + 1, [(0, i, rng.choice((1, 1, 2))) for i in range(1, k + 1)]
            )

        pool = [star(k) for k in range(1, 7) for _ in range(5)]
        pool += [random_connected_multigraph(rng, max_vertices=7) for _ in range(40)]
        agree = 0
        for g in pool:
            h = shuffled(g, rng)
            if rng.random() < 0.5:
                edges = list(h.edges)
                u, v, m = edges.pop(rng.randrange(len(edges)))
                edges.append((u, rng.choice([w for w in range(h.vertex_count) if w != u]), m))
                h = Multigraph.from_edges(h.vertex_count, edges)
            iso = brute_isomorphic(g, h)
            assert (canonical_form(g) == canonical_form(h)) == iso
            agree += iso
        assert 0 < agree < len(pool)
        # larger stars, against relabelled copies and one doubled edge more
        for k in (40, 120):
            g = star(k)
            key = canonical_form(g)
            assert canonical_form(shuffled(g, rng)) == key
            u, v, m = next(e for e in g.edges if e[2] == 1)
            more = Multigraph.from_edges(k + 1, [*g.edges, (u, v, 1)])
            assert canonical_form(shuffled(more, rng)) != key

    def test_too_deep_search_raises_graph_error(self):
        # the search recurses once per individualized vertex, and the star
        # K_{1,1200} individualizes 1,199 leaves
        star = Multigraph.from_edges(1201, [(0, i) for i in range(1, 1201)])
        with pytest.raises(GraphError, match="canonical-form recursion too deep on 1201 vertices"):
            canonical_form(star)


class TestFirstLeaf:
    def test_equal_first_leaves_are_isomorphic(self, rng):
        # graphs, relabelled copies and copies with one edge moved, grouped
        # by first leaf: every group is one isomorphism class
        pool = []
        for i in range(200):
            if i % 2:
                g = random_connected_multigraph(rng, max_vertices=6, max_mult=2)
            else:
                g = random_simple_connected(rng, max_vertices=6)
            pool += [g, shuffled(g, rng), shuffled(g, rng)]
            edges = list(g.edges)
            u, v, m = edges.pop(rng.randrange(len(edges)))
            edges.append((u, rng.choice([w for w in range(g.vertex_count) if w != u]), m))
            pool.append(shuffled(Multigraph.from_edges(g.vertex_count, edges), rng))
        groups: dict = {}
        for g in pool:
            groups.setdefault(first_leaf(g), []).append(g)
        for (n, edges), members in groups.items():
            leaf = Multigraph(n, edges)
            assert all(brute_isomorphic(leaf, g) for g in members)
        assert len(groups) < len(pool) / 2  # relabelled copies often agree

    def test_empty_and_single_vertex(self):
        assert first_leaf(Multigraph(0)) == (0, ())
        assert first_leaf(Multigraph(1)) == (1, ())


class TestTwoEdgeConnectivity:
    def test_cycle(self):
        assert is_two_edge_connected(cycle_graph(5))

    def test_bridge(self):
        two_triangles = Multigraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
        )
        assert not is_two_edge_connected(two_triangles)
        assert bridges(two_triangles) == [(0, 3)]

    def test_cut_vertex_without_bridge(self):
        bowtie = Multigraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert is_two_edge_connected(bowtie)

    def test_parallel_pair_is_not_a_bridge(self):
        assert is_two_edge_connected(doubled_edge())

    def test_disconnected_errors(self):
        with pytest.raises(GraphError, match="not connected"):
            is_two_edge_connected(Multigraph(2, ()))


class TestBlocks:
    def test_bowtie_splits(self):
        bowtie = Multigraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        blocks = biconnected_components(bowtie)
        assert len(blocks) == 2
        assert all(are_isomorphic(b, cycle_graph(3)) for b in blocks)

    def test_biconnected_is_single_block(self):
        blocks = biconnected_components(complete_graph(4))
        assert len(blocks) == 1 and are_isomorphic(blocks[0], complete_graph(4))


@given(st.data())
def test_operation_count_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = random_connected_multigraph(rng, max_vertices=6)
    u, v, _ = g.edges[rng.randrange(len(g.edges))]
    assert delete_edge(g, u, v).vertex_count == g.vertex_count
    contracted = contract_edge(g, u, v)
    assert contracted.vertex_count == g.vertex_count - 1
    # all copies of the contracted pair vanish
    assert contracted.edge_count == g.edge_count - g.multiplicity(u, v)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
)
def test_add_path_count_invariants(seed, k):
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=6)
    u = rng.randrange(g.vertex_count)
    v = rng.randrange(g.vertex_count)
    if k == 1 and u == v:
        return
    h = add_path(g, u, v, k)
    assert h.vertex_count == g.vertex_count + k - 1
    assert h.edge_count == g.edge_count + k


def test_simplicity_certificate():
    assert is_simple(complete_graph(4))
    assert not is_simple(doubled_edge())


def _component_count(g):
    """Components by repeated flooding over the edge triples."""
    unseen = set(range(g.vertex_count))
    count = 0
    while unseen:
        count += 1
        frontier = {unseen.pop()}
        while frontier:
            nxt = {b for a, b, _ in g.edges if a in frontier} | {
                a for a, b, _ in g.edges if b in frontier
            }
            frontier = nxt & unseen
            unseen -= frontier
    return count


def _random_multigraph(rng):
    """Connected about half the time; otherwise random pairs on up to 9
    vertices, often in several components and with isolated vertices."""
    if rng.random() < 0.5:
        return random_connected_multigraph(rng, max_vertices=9, extra_edges=6)
    n = rng.randint(1, 9)
    pairs = []
    for _ in range(rng.randint(0, 12)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v, rng.choice((1, 1, 1, 2, 3))))
    return Multigraph.from_edges(n, pairs)


def test_blocks_and_bridges_against_edge_deletion():
    """bridges, is_two_edge_connected and biconnected_components share one
    lowpoint DFS; check each against deleting edges and counting trees."""
    rng = random.Random(2024)
    connected_seen = disconnected_seen = 0
    for _ in range(400):
        g = _random_multigraph(rng)
        comps = _component_count(g)
        expected = sorted(
            (u, v)
            for u, v, m in g.edges
            if m == 1 and _component_count(delete_edge(g, u, v)) > comps
        )
        assert bridges(g) == expected
        if comps > 1:
            disconnected_seen += 1
            with pytest.raises(GraphError, match="not connected"):
                is_two_edge_connected(g)
            with pytest.raises(GraphError, match="not connected"):
                biconnected_components(g)
            continue
        connected_seen += 1
        assert is_two_edge_connected(g) == (not expected)
        blocks = biconnected_components(g)
        assert sum(b.edge_count for b in blocks) == g.edge_count
        product = 1
        for b in blocks:
            product *= tau_matrix(b)
        assert product == tau_matrix(g)
    assert connected_seen > 150 and disconnected_seen > 50

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from treeforge import constructions
from treeforge.constructions import (
    BouquetSpec,
    ThetaSpec,
    VARIANT_WITNESSES,
    VariantSpec,
    build_bouquet,
    build_cycle_glue,
    build_generalized_theta,
    build_theta,
    build_variant,
    iter_theta_specs,
    iter_variant_specs,
    parse_construction,
    tau_bouquet,
    tau_generalized_theta,
    tau_theta,
    tau_variant,
)
from treeforge.graph_core import GraphError, Skeleton, add_path, is_simple
from treeforge.tree_count import tau_matrix, tau_subdivision

from oracles import brute_tau


class TestTheta:
    def test_build_122(self):
        g = build_theta(ThetaSpec(1, 2, 2))
        assert g.vertex_count == 4 and g.edge_count == 5
        assert is_simple(g)
        assert brute_tau(g) == 8

    def test_222_is_k23(self):
        g = build_theta(ThetaSpec(2, 2, 2))
        assert tau_matrix(g) == 12
        degrees = sorted(g.degree(v) for v in range(g.vertex_count))
        assert degrees == [2, 2, 2, 3, 3]

    def test_not_simple_rejected(self):
        with pytest.raises(GraphError, match="simple"):
            ThetaSpec(1, 1, 1)
        with pytest.raises(GraphError, match="simple"):
            ThetaSpec(1, 1, 5)

    def test_closed_form_values(self):
        assert tau_theta(3, 3, 28) == 177
        assert tau_theta(0, 5, 5) == 25
        assert tau_theta(2, 3, 4) == 26 == tau_matrix(build_theta(ThetaSpec(2, 3, 4)))

    @given(st.integers(1, 8), st.integers(2, 8), st.integers(2, 8))
    def test_symmetric(self, a, b, c):
        vals = {tau_theta(*p) for p in permutations((a, b, c))}
        assert len(vals) == 1


class TestCycleGlueAndBouquet:
    def test_glue_values(self):
        g = build_cycle_glue(3, 3)
        assert g.edge_count == 6 and tau_matrix(g) == 9
        g = build_cycle_glue(3, 6)
        assert g.vertex_count == 8 and tau_matrix(g) == 18
        assert tau_matrix(build_cycle_glue(8, 11)) == 88

    def test_glue_too_short(self):
        with pytest.raises(GraphError):
            build_cycle_glue(2, 5)

    def test_bouquet_values(self):
        g = build_bouquet(BouquetSpec((3, 3, 3)))
        assert g.edge_count == 9 and tau_matrix(g) == 27
        assert tau_matrix(build_bouquet(BouquetSpec((5, 7)))) == 35
        spec = BouquetSpec((3, 5, 7))
        assert tau_bouquet(spec) == 105 == tau_matrix(build_bouquet(spec))

    def test_bouquet_rejects_short_cycle(self):
        with pytest.raises(GraphError):
            BouquetSpec((3, 2))


class TestGeneralizedTheta:
    def test_all_twos(self):
        g = build_generalized_theta([2, 2, 2, 2])
        assert tau_generalized_theta([2, 2, 2, 2]) == 32 == tau_matrix(g)

    def test_reduces_to_theta(self):
        assert tau_generalized_theta([1, 2, 2]) == 8 == tau_theta(1, 2, 2)

    def test_2345(self):
        assert tau_generalized_theta([2, 3, 4, 5]) == 154
        assert tau_matrix(build_generalized_theta([2, 3, 4, 5])) == 154

    def test_two_ones_rejected(self):
        with pytest.raises(GraphError, match="simple"):
            build_generalized_theta([1, 1, 2, 3])

    @given(st.lists(st.integers(1, 5), min_size=3, max_size=5))
    def test_symmetric_and_simple(self, lengths):
        if sum(1 for l in lengths if l == 1) > 1:
            return
        base = tau_generalized_theta(lengths)
        assert all(
            tau_generalized_theta(p) == base for p in permutations(lengths)
        )
        assert is_simple(build_generalized_theta(lengths))


    def test_one_pass_equals_tree_terms(self, rng):
        # e_{k-1} by the recurrence against the spanning trees of k
        # parallel slots, one term per slot left out of the tree
        for _ in range(200):
            lengths = [rng.randint(1, 50) for _ in range(rng.randint(1, 12))]
            theta = Skeleton(2, ((0, 1),) * len(lengths))
            assert tau_generalized_theta(lengths) == tau_subdivision(theta, lengths), lengths


class TestVariants:
    def test_table_values(self):
        assert tau_variant(VariantSpec("v1", 3, 2, 1, 1, a1=2)) == 21
        assert tau_variant(VariantSpec("v2", 3, 2, 1, 1, a1=1, b1=1)) == 24
        assert tau_variant(VariantSpec("v0", 4, 2, 1, 1, a1=1, a2=1)) == 30
        assert tau_variant(VariantSpec("v1", 2, 2, 2, 1, a1=2)) == 20
        assert tau_variant(VariantSpec("v1", 3, 1, 4, 1, a1=2)) == 37
        assert tau_variant(VariantSpec("v1", 4, 3, 2, 1, a1=2)) == 58

    def test_built_graphs_match(self):
        for spec in (
            VariantSpec("v1", 3, 2, 1, 1, a1=2),
            VariantSpec("v2", 3, 2, 1, 1, a1=1, b1=1),
            VariantSpec("v0", 4, 2, 1, 1, a1=1, a2=1),
        ):
            g = build_variant(spec)
            assert is_simple(g)
            assert g.edge_count == spec.a + spec.b + spec.c + spec.d
            assert tau_matrix(g) == tau_variant(spec)

    def test_witness_table(self):
        for n, spec in VARIANT_WITNESSES.items():
            g = build_variant(spec)
            assert tau_matrix(g) == n == tau_variant(spec)
        assert build_variant(VARIANT_WITNESSES[30]).edge_count == 8
        assert build_variant(VARIANT_WITNESSES[37]).edge_count == 9
        assert build_variant(VARIANT_WITNESSES[58]).edge_count == 10

    def test_constraints_named(self):
        with pytest.raises(GraphError, match="a1 \\+ a2 < a"):
            VariantSpec("v0", 3, 2, 2, 1, a1=2, a2=1)
        with pytest.raises(GraphError, match="d >= 2 when a1 = 1"):
            VariantSpec("v1", 3, 2, 2, 1, a1=1)
        with pytest.raises(GraphError, match="parallel the length-1 path"):
            VariantSpec("v1", 2, 2, 1, 1, a1=2)
        with pytest.raises(GraphError, match="interior"):
            VariantSpec("v2", 2, 2, 2, 1, a1=2, b1=1)
        with pytest.raises(GraphError, match="adjacent"):
            VariantSpec("v0", 3, 2, 2, 1, a1=1, a2=1)

    def test_every_swept_variant_is_simple_and_matches(self):
        count = 0
        for spec in iter_variant_specs(9):
            g = build_variant(spec)
            assert is_simple(g)
            assert tau_matrix(g) == tau_variant(spec)
            count += 1
        assert count > 50


class TestLowerBounds:
    def test_v0_tiers(self):
        for spec in iter_variant_specs(11):
            if spec.kind != "v0":
                continue
            t = tau_variant(spec)
            base = tau_theta(spec.a, spec.b, spec.c)
            if spec.a == 3 or spec.d >= 2:
                assert 2 * t >= (2 * spec.d + 1) * base
            if spec.a >= 4 and spec.d == 1:
                assert t >= (spec.d + 1) * base

    def test_v1_bound(self):
        for spec in iter_variant_specs(11):
            if spec.kind == "v1":
                assert 2 * tau_variant(spec) >= (2 * spec.d + 1) * tau_theta(
                    spec.a, spec.b, spec.c
                )

    def test_v2_bound(self):
        for spec in iter_variant_specs(11):
            if spec.kind == "v2":
                assert tau_variant(spec) >= (spec.d + 1) * tau_theta(
                    spec.a, spec.b, spec.c
                )

    def test_corollary_tiers(self):
        for spec in iter_theta_specs(9):
            theta = build_theta(spec)
            base = tau_theta(spec.a, spec.b, spec.c)
            nv = theta.vertex_count
            for d in range(1, 11 - spec.a - spec.b - spec.c):
                for x in range(nv):
                    for y in range(x, nv):
                        if d == 1 and (x == y or theta.multiplicity(x, y)):
                            continue
                        if d == 2 and x == y:
                            continue
                        t = tau_matrix(add_path(theta, x, y, d))
                        if d == 1:
                            assert 2 * t >= 3 * base
                        elif d == 2:
                            assert 2 * t >= 5 * base
                        else:
                            assert t >= d * base


class TestParseConstruction:
    def test_families(self):
        g, t = parse_construction("theta:2,3,4")
        assert t == 26 == tau_matrix(g)
        g, t = parse_construction("glue:3,6")
        assert t == 18 == tau_matrix(g)
        g, t = parse_construction("bouquet:3+5+7")
        assert t == 105
        g, t = parse_construction("gen:2+3+4+5")
        assert t == 154
        g, t = parse_construction("v1:3,2,1,1;2")
        assert t == 21
        g, t = parse_construction("v0:4,2,1,1;1,1")
        assert t == 30
        g, t = parse_construction("v2:3,2,1,1;1,1")
        assert t == 24

    @pytest.mark.parametrize(
        "text",
        [
            "theta:2,3,4",
            "theta:1,5,9",
            "glue:3,6",
            "bouquet:3+5+7",
            "gen:1+3+4+5",
            "v0:4,2,1,1;1,1",
            "v1:3,2,1,1;2",
            "v2:3,2,4,3;1,1",
        ],
    )
    def test_vertex_ceiling_is_the_built_vertex_count(self, text, monkeypatch):
        # at the graph's own vertex count it is built, one below it is not
        g, t = parse_construction(text)
        monkeypatch.setattr(constructions, "SPEC_VERTEX_CEILING", g.vertex_count)
        assert parse_construction(text) == (g, t)
        monkeypatch.setattr(constructions, "SPEC_VERTEX_CEILING", g.vertex_count - 1)
        ceiling = f"has {g.vertex_count} vertices, more than the ceiling of {g.vertex_count - 1}"
        with pytest.raises(GraphError, match=ceiling):
            parse_construction(text)

    def test_errors(self):
        with pytest.raises(GraphError):
            parse_construction("theta:1,1,1")
        with pytest.raises(GraphError):
            parse_construction("nope:1,2")
        with pytest.raises(GraphError):
            parse_construction("v1:3,2,1,1")

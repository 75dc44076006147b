import random

import pytest

from treeforge.graph_core import GraphError, is_simple
from treeforge.minimal_builder import (
    ExceptionClass,
    Strategy,
    build_witness,
    check_bounds,
    in_quarter_scope,
)
from treeforge.tree_count import tau_dc, tau_matrix, tau_subdivision

from oracles import shuffled, suppress_degree_two


def test_fixed_point_falls_back_to_cycle():
    w = build_witness(5)
    assert w.strategy is Strategy.CYCLE_FALLBACK
    assert w.vertices == w.edges == 5


def test_25_uses_glued_cycles():
    w = build_witness(25)
    assert w.strategy is Strategy.CYCLE_GLUE
    assert w.edges == 10 and w.vertices == 9


def test_177_uses_theta():
    w = build_witness(177)
    assert w.strategy is Strategy.THETA
    assert w.edges == 34
    assert 3 * w.edges <= 177 + 7


def test_variant_table_entries():
    for n, edges in ((30, 8), (37, 9), (58, 10)):
        w = build_witness(n)
        assert w.strategy is Strategy.VARIANT_TABLE
        assert w.edges == edges


def test_bouquet_beats_theta_for_100():
    w = build_witness(100)
    assert w.strategy is Strategy.BOUQUET
    assert w.edges == 14  # cycles 4 + 5 + 5
    r = check_bounds(100, w)
    assert r.bound_quarter  # 4*14 <= 113


def test_exceptional_nine():
    w = build_witness(9)
    assert w.edges == 6  # two glued triangles
    r = check_bounds(9, w)
    assert not r.bound_third  # 18 > 16, consistent with 9 being exceptional
    assert r.exception_class is ExceptionClass.BOTH


def test_exception_classes():
    assert check_bounds(10, build_witness(10)).exception_class is ExceptionClass.BOTH
    assert check_bounds(22, build_witness(22)).exception_class is ExceptionClass.BOTH
    assert check_bounds(25, build_witness(25)).exception_class is ExceptionClass.QUARTER
    assert check_bounds(12, build_witness(12)).exception_class is ExceptionClass.NONE
    assert check_bounds(5, build_witness(5)).exception_class is ExceptionClass.BOTH


def test_quarter_scope():
    # n = 2 (mod 3) and QUARTER_EXCEPTIONS, the fixed points 10 and 22 among
    # them, are out
    assert [n for n in range(3, 40) if in_quarter_scope(n)] == [
        12, 15, 16, 19, 21, 24, 27, 28, 30, 31, 33, 34, 36, 37, 39
    ]


def test_rejects_small_n():
    with pytest.raises(GraphError):
        build_witness(2)


def test_certification_sample():
    for n in list(range(3, 120)) + [1848, 4097, 9973]:
        w = build_witness(n)
        assert w.tau == n
        assert is_simple(w.graph)
        assert tau_matrix(w.graph) == n
        assert w.graph.is_connected()


def test_deterministic():
    a = build_witness(360)
    b = build_witness(360)
    assert a.graph == b.graph and a.strategy is b.strategy


def test_witness_is_minimal_among_strategies_for_small_n():
    # spot check: 12 has theta (2,2,2) with 6 edges, glue C_{3,4} with 7
    w = build_witness(12)
    assert w.strategy is Strategy.THETA and w.edges == 6
    # 36: glue C_{4,9}=13, C_{6,6}=12, bouquet 3*3*4 -> 10 edges
    w = build_witness(36)
    assert w.strategy is Strategy.BOUQUET and w.edges == 10


def test_witness_counts_survive_relabelling():
    # a witness differential: no pivot order or reduction order that the
    # labels induce may change a certified count
    rng = random.Random(2000)
    for n in range(3, 2001):
        g = shuffled(build_witness(n).graph, rng)
        assert tau_matrix(g) == n
        assert tau_dc(g) == n


def test_witness_subdivision_counts():
    # the third count of the witness differential: each witness is counted
    # from the skeleton left when its degree-2 vertices are suppressed and
    # the lengths of the paths they formed, without building a Laplacian
    for n in range(3, 2001):
        skeleton, lengths = suppress_degree_two(build_witness(n).graph)
        assert tau_subdivision(skeleton, lengths) == n

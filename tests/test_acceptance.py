"""Acceptance suite: every guaranteed behavior, checked at exact integer
equality (zero tolerance). Each test prints one PASS line on success; run
with ``pytest tests/test_acceptance.py -v -s`` to see them with timings.

Three checks are marked ``_as_stated``. Each first pinned a published form
that no correct program can return; each now asserts the corrected form, and
its docstring quotes the form it replaces with the counting argument against
it.
"""

from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement

import pytest

from treeforge.cli import TABLE1_ROWS
from treeforge.constructions import (
    VARIANT_WITNESSES,
    build_cycle_glue,
    build_generalized_theta,
    build_theta,
    build_variant,
    iter_theta_specs,
    iter_variant_specs,
    tau_generalized_theta,
    tau_theta,
    tau_variant,
)
from treeforge.graph_core import (
    Multigraph,
    add_path,
    canonical_form,
    complete_graph,
    contract_edge,
    cycle_graph,
    delete_edge,
    subdivision,
)
from treeforge.idoneal import EULER_IDONEAL_NUMBERS, representable_sieve
from treeforge.minimal_builder import (
    BETA_EXCEPTIONS,
    FIXED_POINTS,
    QUARTER_EXCEPTIONS,
    ExceptionClass,
    build_witness,
    check_bounds,
    in_quarter_scope,
)
from treeforge.search_oracle import (
    alpha_exact,
    beta_exact,
    enumerate_connected_graphs,
    verify_no_smaller_graph,
)
from treeforge.tree_count import tau_dc, tau_matrix, tau_subdivision

from oracles import fib, random_connected_multigraph, skeleton_of, square_of_cycle


def _announce(label: str, started: float) -> None:
    print(f"PASS {label} ({time.perf_counter() - started:.2f}s)")


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_table_of_decorated_thetas():
    started = time.perf_counter()
    expected_column = [21, 24, 30, 32, 35, 30, 29, 35, 36, 24, 20, 32, 35, 32]
    assert [v for _, v in TABLE1_ROWS] == expected_column
    for spec, expected in TABLE1_ROWS:
        assert tau_variant(spec) == expected
        assert tau_matrix(build_variant(spec)) == expected
    assert time.perf_counter() - started < 1.0
    _announce("criterion 1: all 14 decorated-theta rows match both methods", started)


# -- 2 -----------------------------------------------------------------------


def _generalized_length_tuples(max_total: int):
    def rec(prefix, remaining, lo):
        if len(prefix) >= 3:
            yield tuple(prefix)
        for l in range(lo, remaining + 1):
            if prefix.count(1) + (l == 1) > 1:
                continue
            prefix.append(l)
            yield from rec(prefix, remaining - l, l)
            prefix.pop()

    for lengths in rec([], max_total, 1):
        yield lengths


def test_criterion_2_closed_form_sweeps():
    started = time.perf_counter()
    thetas = 0
    for spec in iter_theta_specs(15):
        assert tau_theta(spec.a, spec.b, spec.c) == tau_matrix(build_theta(spec))
        thetas += 1
    variants = 0
    for spec in iter_variant_specs(12):
        assert tau_variant(spec) == tau_matrix(build_variant(spec))
        variants += 1
    gens = 0
    for lengths in _generalized_length_tuples(14):
        assert tau_generalized_theta(lengths) == tau_matrix(
            build_generalized_theta(lengths)
        )
        gens += 1
    assert thetas > 80 and variants > 400 and gens > 100
    _announce(
        f"criterion 2: closed forms equal built graphs "
        f"({thetas} thetas, {variants} variants, {gens} generalized)",
        started,
    )


# -- 3 -----------------------------------------------------------------------


def test_criterion_3_lower_bound_lemmas():
    started = time.perf_counter()
    for spec in iter_variant_specs(12):
        t = tau_variant(spec)
        base = tau_theta(spec.a, spec.b, spec.c)
        if spec.kind == "v0":
            if spec.a == 3 or spec.d >= 2:
                assert 2 * t >= (2 * spec.d + 1) * base
            else:
                assert t >= (spec.d + 1) * base
        elif spec.kind == "v1":
            assert 2 * t >= (2 * spec.d + 1) * base
        else:
            assert t >= (spec.d + 1) * base
    pairs = 0
    for spec in iter_theta_specs(10):
        theta = build_theta(spec)
        base = tau_theta(spec.a, spec.b, spec.c)
        nv = theta.vertex_count
        for d in range(1, 13 - (spec.a + spec.b + spec.c)):
            for x in range(nv):
                for y in range(x, nv):
                    if d == 1 and (x == y or theta.multiplicity(x, y)):
                        continue
                    if d == 2 and x == y:
                        continue
                    t = tau_matrix(add_path(theta, x, y, d))
                    pairs += 1
                    if d == 1:
                        assert 2 * t >= 3 * base
                    elif d == 2:
                        assert 2 * t >= 5 * base
                    else:
                        assert t >= d * base
    assert pairs > 1000
    _announce(f"criterion 3: no counterexample in {pairs} path attachments", started)


# -- 4 -----------------------------------------------------------------------


def _connected_multigraphs_up_to(max_vertices: int, max_total_mult: int):
    seen = set()
    for v in range(1, max_vertices + 1):
        for base in enumerate_connected_graphs(v):
            slots = [(u, w) for u, w, _ in base.edges]
            e = len(slots)
            if e > max_total_mult:
                continue
            for extra in range(0, max_total_mult - e + 1):
                assignments = (
                    combinations_with_replacement(range(e), extra) if e else [()]
                )
                for assignment in assignments:
                    mult = [1] * e
                    for i in assignment:
                        mult[i] += 1
                    g = Multigraph.from_edges(
                        v, [(u, w, m) for (u, w), m in zip(slots, mult)]
                    )
                    key = canonical_form(g)
                    if key not in seen:
                        seen.add(key)
                        yield g


def test_criterion_4_method_cross_validation():
    started = time.perf_counter()
    exhaustive = 0
    for g in _connected_multigraphs_up_to(6, 9):
        assert tau_matrix(g) == tau_dc(g)
        exhaustive += 1
    rng = random.Random(20260810)
    for _ in range(500):
        g = random_connected_multigraph(rng, max_vertices=10, extra_edges=6)
        assert tau_matrix(g) == tau_dc(g)
    assert time.perf_counter() - started < 120
    _announce(
        f"criterion 4: matrix = deletion-contraction on {exhaustive} exhaustive "
        "+ 500 random graphs",
        started,
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_5_known_values():
    started = time.perf_counter()
    for n in range(2, 10):
        assert tau_matrix(complete_graph(n)) == n ** (n - 2)
    for a, b, t in [(3, 3, 9), (3, 6, 18), (5, 5, 25), (8, 11, 88), (8, 29, 232), (11, 23, 253)]:
        assert tau_matrix(build_cycle_glue(a, b)) == t == a * b
    for n, edges in ((30, 8), (37, 9), (58, 10)):
        g = build_variant(VARIANT_WITNESSES[n])
        assert tau_matrix(g) == n and g.edge_count == edges
    assert time.perf_counter() - started < 10
    _announce("criterion 5: complete graphs, glued cycles, decorated thetas", started)


def test_criterion_5_square_of_cycle_as_stated():
    """Published form: the square of an n-cycle has n * F_n spanning trees.

    That value is arithmetically impossible: C_5 squared is K_5, which has
    5**3 = 125 = 5 * F_5**2 trees by Cayley's formula, not 5 * F_5 = 25. The
    identity is n * F_n**2 (Kleitman & Golden, Amer. Math. Monthly 82, 1975).
    This test checks the K_5 step itself and holds the matrix method to the
    identity on n = 5..40; the companion test below and the
    deletion-contraction cross-check in test_tree_count confirm n = 5..12 by
    a second method.
    """
    assert canonical_form(square_of_cycle(5)) == canonical_form(complete_graph(5))
    assert tau_matrix(square_of_cycle(5)) == 5**3
    for n in range(5, 41):
        assert tau_matrix(square_of_cycle(n)) == n * fib(n) ** 2


def test_criterion_5_square_of_cycle_product_form():
    started = time.perf_counter()
    for n in range(5, 13):
        g = square_of_cycle(n)
        assert tau_matrix(g) == n * fib(n) ** 2
        assert tau_dc(g) == n * fib(n) ** 2
    _announce("criterion 5 companion: square of a cycle has n*F_n^2 trees", started)


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_idoneal_scan():
    started = time.perf_counter()
    sieve = representable_sieve(10**6)
    free = [n for n in range(1, 1849) if not sieve[n]]
    assert set(free) == EULER_IDONEAL_NUMBERS
    assert all(sieve[n] for n in range(1849, 10**6 + 1))
    assert time.perf_counter() - started < 60
    _announce("criterion 6: Euler's 65 values below 1848, none up to 10^6", started)


# -- 7 -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def witness_bounds():
    rows = {}
    for n in range(3, 10001):
        w = build_witness(n)
        assert w.tau == n, f"certification failed at n={n}"
        rows[n] = check_bounds(n, w)
    return rows


def test_criterion_7_certification_and_bounds(witness_bounds):
    started = time.perf_counter()
    for n, r in witness_bounds.items():
        both_third = r.bound_third and r.vertex_bound_third
        if n in BETA_EXCEPTIONS:
            assert not both_third, f"n={n} should violate the bound pair"
        else:
            assert both_third, f"n={n} misses the third bounds"
        if in_quarter_scope(n):
            assert r.bound_quarter and r.vertex_bound_quarter, f"n={n} quarter"
    _announce(
        "criterion 7: 9998 certified witnesses, bound violations exactly on "
        "the exceptional sets",
        started,
    )


def test_criterion_7_exception_classes(witness_bounds):
    """One quarter predicate: the class follows BETA_EXCEPTIONS and
    in_quarter_scope alone, and no n is exempt from the third bounds only."""
    assert FIXED_POINTS <= BETA_EXCEPTIONS
    for n, r in witness_bounds.items():
        if n in BETA_EXCEPTIONS:
            assert r.exception_class is ExceptionClass.BOTH, f"n={n}"
        elif in_quarter_scope(n):
            assert r.exception_class is ExceptionClass.NONE, f"n={n}"
        else:
            assert r.exception_class is ExceptionClass.QUARTER, f"n={n}"


def test_criterion_7_edge_bound_iff_as_stated(witness_bounds):
    """Published form: edge-count violations of (n+7)/3 are exactly the set
    {3,4,5,6,7,9,10,13,18,22}.

    That set is impossible for the edge bound alone: the minimum for 3 is
    the triangle with 3 edges, and 3 * 3 <= 3 + 7, so n = 3 meets the edge
    bound. Only the edge-and-vertex conjunction (checked above) fails on the
    whole set. The edge bound by itself fails at each of the other nine
    numbers and nowhere else: the certified witnesses meet it at every other
    n up to 10000, and the exhaustive search finds no graph at all within
    (n+7)/3 edges at the nine, so the violation is one of beta(n), not of
    the witness.
    """
    violations = {n for n, r in witness_bounds.items() if not r.bound_third}
    assert violations == BETA_EXCEPTIONS - {3}
    assert beta_exact(3, (3 + 7) // 3).value == 3
    for n in sorted(violations):
        assert beta_exact(n, (n + 7) // 3).value is None, f"n={n}"


def test_criterion_7_quarter_bound_as_stated(witness_bounds):
    """Published scope: the quarter bounds hold for every n != 2 (mod 3)
    outside {3,4,6,7,9,13,18,25}.

    That scope cannot hold: it contains 10 and 22, which are fixed points.
    No graph with 10 (respectively 22) spanning trees has fewer than 10
    (22) edges, and 4 * 10 > 10 + 13. The corrected scope leaves out the
    whole third-bound set, so QUARTER_EXCEPTIONS is BETA_EXCEPTIONS plus 25.
    Below, the exhaustive searches prove that 10 and 22 are true
    exceptions: no graph meets either quarter bound there.
    """
    for n, r in witness_bounds.items():
        if n % 3 != 2 and n not in QUARTER_EXCEPTIONS:
            assert r.bound_quarter and r.vertex_bound_quarter, f"n={n}"
    for n in (10, 22):
        assert verify_no_smaller_graph(n, (n + 9) // 4 + 1).proved, f"n={n}"
        assert beta_exact(n, (n + 13) // 4).value is None, f"n={n}"


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_exhaustive_oracles():
    started = time.perf_counter()
    assert beta_exact(9, 7).value == 6
    assert alpha_exact(18, 8).value == 8
    assert alpha_exact(25, 9).value == 9
    for n in range(3, 8):
        assert beta_exact(n, 7).value == n
        assert alpha_exact(n, 8).value == n
    for n in (10, 13):
        assert alpha_exact(n, 8).value is None  # nothing on <= 8 vertices
        report = verify_no_smaller_graph(n, n)
        assert report.proved  # nothing below n vertices at all
        assert tau_matrix(cycle_graph(n)) == n  # and the n-cycle attains it
    report = verify_no_smaller_graph(22, 22)
    assert report.proved
    assert report.levels[0]["cyclomatic"] == 2
    assert int(report.levels[-1]["min_tau"]) > 22
    skeletons_listed = sum(len(level["skeletons"]) for level in report.levels)
    assert skeletons_listed >= 100  # full audit transcript
    assert time.perf_counter() - started < 900
    _announce(
        f"criterion 8: oracle values reproduced; 22 proved a fixed point over "
        f"{skeletons_listed} skeleton topologies",
        started,
    )


# -- 9 -----------------------------------------------------------------------


def test_criterion_9_property_floor():
    started = time.perf_counter()
    rng = random.Random(0xF00D)

    for _ in range(1000):
        g = random_connected_multigraph(rng, max_vertices=6)
        u, v, _ = g.edges[rng.randrange(len(g.edges))]
        assert tau_matrix(g) == tau_matrix(delete_edge(g, u, v)) + tau_matrix(
            contract_edge(g, u, v)
        )

    checked = 0
    while checked < 1000:
        g = random_connected_multigraph(rng, max_vertices=6)
        u = rng.randrange(g.vertex_count)
        v = rng.randrange(g.vertex_count)
        k = rng.randint(1, 5)
        if k == 1 and (u == v or g.multiplicity(u, v)):
            continue
        t = tau_matrix(add_path(g, u, v, k))
        base = tau_matrix(g)
        if k == 1:
            assert t >= base + 2
        else:
            assert t >= k * base
        checked += 1

    for _ in range(1000):
        b1 = random_connected_multigraph(rng, max_vertices=5)
        b2 = random_connected_multigraph(rng, max_vertices=5)
        off = b1.vertex_count
        pairs = list(b1.edges) + [
            (0 if u == 0 else u + off - 1, 0 if v == 0 else v + off - 1, m)
            for u, v, m in b2.edges
        ]
        glued = Multigraph.from_edges(off + b2.vertex_count - 1, pairs)
        assert tau_matrix(glued) == tau_matrix(b1) * tau_matrix(b2)

    for _ in range(1000):
        sk = skeleton_of(
            random_connected_multigraph(rng, max_vertices=5, extra_edges=3, max_mult=2)
        )
        lengths = [rng.randint(1, 4) for _ in sk.slots]
        assert tau_subdivision(sk, lengths) == tau_matrix(subdivision(sk, lengths))

    for _ in range(1000):
        g = random_connected_multigraph(rng, max_vertices=7)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabeled(perm))

    _announce("criterion 9: 5000 randomized identity checks, zero failures", started)

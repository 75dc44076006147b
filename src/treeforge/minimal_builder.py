"""Certified small graphs with a prescribed number of spanning trees.

For n >= 3 the builder tries every applicable construction family and
returns the witness with the fewest edges:

  (i)   the theta graph of the cheapest representation n = ab + ac + bc
        (every other theta has more edges, or as many and a later triple),
  (ii)  glued cycle pairs C_{p,q} for factorizations n = p*q, p, q >= 3,
  (iii) cycle bouquets for factorizations into >= 3 factors, all >= 3,
  (iv)  a fixed table of decorated thetas for 30, 37 and 58,
  (v)   the n-cycle itself as a last resort.

Every returned graph is re-certified with the Laplacian cofactor before it
leaves this module. The bound report records how the witness compares with
the (n+7)/3 / (n+4)/3 edge and vertex bounds and their sharper quarter
versions, which hold for all n outside small exceptional sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .constructions import (
    BouquetSpec,
    ThetaSpec,
    VARIANT_WITNESSES,
    build_bouquet,
    build_cycle_glue,
    build_theta,
    build_variant,
)
from .graph_core import GraphError, Multigraph, cycle_graph
from .idoneal import cheapest_theta
# Unused here, but perfbench/spans.py patches this attribute when tracing.
from .idoneal import theta_representations  # noqa: F401
from .tree_count import TreeCount, tau_matrix

#: n for which no simple graph meets the vertex bound (n+4)/3 and the edge
#: bound (n+7)/3 together. The edge bound alone holds at n = 3: the
#: triangle has 3 edges and 3*3 <= 3+7, so only the vertex half fails there.
BETA_EXCEPTIONS = frozenset({3, 4, 5, 6, 7, 9, 10, 13, 18, 22})

#: n excluded from the quarter bounds (besides n = 2 mod 3); together with
#: n = 2 (mod 3), this set decides the quarter part of ExceptionClass in
#: `check_bounds`. The scope in which the bound checks assert
#: the quarter bounds is narrower: `in_quarter_scope` also leaves out the
#: fixed points 10 and 22. Whether those two belong in this constant is an
#: open question: adding them would turn the class of 22 from BETA into BOTH
#: and leave ExceptionClass.BETA unreachable.
QUARTER_EXCEPTIONS = frozenset({3, 4, 6, 7, 9, 13, 18, 25})

#: Fixed points alpha(n) = n that fall in the quarter residue classes: every
#: graph with n trees needs n vertices and n edges, far above (n+13)/4.
_QUARTER_FIXED_POINTS = frozenset({10, 22})


def in_quarter_scope(n: int) -> bool:
    """Whether the quarter bounds (n+13)/4 edges and (n+9)/4 vertices are
    expected to hold at n: n != 2 (mod 3), n outside QUARTER_EXCEPTIONS and
    n not one of the fixed points 10 and 22."""
    return (
        n % 3 != 2
        and n not in QUARTER_EXCEPTIONS
        and n not in _QUARTER_FIXED_POINTS
    )


class Strategy(enum.Enum):
    THETA = "theta"
    CYCLE_GLUE = "cycle_glue"
    BOUQUET = "bouquet"
    VARIANT_TABLE = "variant_table"
    CYCLE_FALLBACK = "cycle_fallback"
    SEARCH = "search"  # used by the exhaustive oracles, never by build_witness


class ExceptionClass(enum.Enum):
    NONE = "none"
    BETA = "beta_exceptional"
    QUARTER = "quarter_exceptional"
    BOTH = "beta_and_quarter_exceptional"


@dataclass(frozen=True)
class Witness:
    graph: Multigraph
    tau: TreeCount
    vertices: int
    edges: int
    strategy: Strategy


@dataclass(frozen=True)
class BoundReport:
    n: int
    beta_witness_edges: int
    alpha_witness_vertices: int
    bound_third: bool  # edges <= (n+7)/3
    bound_quarter: bool  # edges <= (n+13)/4
    vertex_bound_third: bool  # vertices <= (n+4)/3
    vertex_bound_quarter: bool  # vertices <= (n+9)/4
    exception_class: ExceptionClass


@lru_cache(maxsize=None)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(p, q) with p <= q, p*q = n, both >= 3."""
    out = []
    p = 3
    while p * p <= n:
        if n % p == 0 and n // p >= 3:
            out.append((p, n // p))
        p += 1
    return tuple(out)


def _multi_factorizations(n: int, minimum: int = 3) -> list[tuple[int, ...]]:
    """Nondecreasing factorizations of n into parts >= minimum."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, lo: int, acc: list[int]) -> None:
        if acc:
            out.append(tuple(acc) + (rest,))
        d = lo
        while d * d <= rest:
            if rest % d == 0:
                acc.append(d)
                rec(rest // d, d, acc)
                acc.pop()
            d += 1

    if n >= minimum * minimum:
        rec(n, minimum, [])
    return [f for f in out if f[-1] >= minimum]


def _candidates(n: int):
    rep = cheapest_theta(n)
    if rep is not None:
        a, b, c = rep
        yield a + b + c, a + b + c - 1, Strategy.THETA, lambda a=a, b=b, c=c: build_theta(
            ThetaSpec(a, b, c)
        )
    for p, q in _factor_pairs(n):
        yield p + q, p + q - 1, Strategy.CYCLE_GLUE, lambda p=p, q=q: build_cycle_glue(p, q)
    for parts in _multi_factorizations(n):
        if len(parts) >= 3:
            edges = sum(parts)
            vertices = edges - len(parts) + 1
            yield edges, vertices, Strategy.BOUQUET, lambda parts=parts: build_bouquet(
                BouquetSpec(parts)
            )
    spec = VARIANT_WITNESSES.get(n)
    if spec is not None:
        edges = spec.a + spec.b + spec.c + spec.d
        yield edges, edges - 2, Strategy.VARIANT_TABLE, lambda spec=spec: build_variant(spec)
    yield n, n, Strategy.CYCLE_FALLBACK, lambda n=n: cycle_graph(n)


_STRATEGY_ORDER = {s: i for i, s in enumerate(Strategy)}


def build_witness(n: int) -> Witness:
    """Minimum-edge witness over all strategies, certified by tau_matrix.

    Ties break toward fewer vertices, then the strategy listed first.
    """
    if n < 3:
        raise GraphError("witnesses exist for n >= 3 only")
    best = min(
        _candidates(n),
        key=lambda item: (item[0], item[1], _STRATEGY_ORDER[item[2]]),
    )
    edges, vertices, strategy, builder = best
    graph = builder()
    tau = tau_matrix(graph)
    if tau != n or graph.edge_count != edges or graph.vertex_count != vertices:
        raise AssertionError(
            f"witness certification failed for n={n}: "
            f"tau={tau}, edges={graph.edge_count}, vertices={graph.vertex_count}"
        )
    return Witness(graph, tau, vertices, edges, strategy)


def check_bounds(n: int, w: Witness) -> BoundReport:
    """Recompute every bound flag from the witness counts."""
    beta_exc = n in BETA_EXCEPTIONS
    quarter_exc = n % 3 == 2 or n in QUARTER_EXCEPTIONS
    if beta_exc and quarter_exc:
        cls = ExceptionClass.BOTH
    elif beta_exc:
        cls = ExceptionClass.BETA
    elif quarter_exc:
        cls = ExceptionClass.QUARTER
    else:
        cls = ExceptionClass.NONE
    return BoundReport(
        n=n,
        beta_witness_edges=w.edges,
        alpha_witness_vertices=w.vertices,
        bound_third=3 * w.edges <= n + 7,
        bound_quarter=4 * w.edges <= n + 13,
        vertex_bound_third=3 * w.vertices <= n + 4,
        vertex_bound_quarter=4 * w.vertices <= n + 9,
        exception_class=cls,
    )

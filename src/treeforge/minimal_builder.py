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

#: The n with alpha(n) = n: every graph with n trees needs n vertices and n
#: edges, the n-cycle's. `verify fixedpoints` proves each one by
#: search_oracle.verify_no_smaller_graph(n, n).
FIXED_POINTS = frozenset({3, 4, 5, 6, 7, 10, 13, 22})

#: n != 2 (mod 3) at which the quarter bounds need not hold. Read literally,
#: the paper leaves out only 25, which fails at n = 4 (alpha(4) = 4 > 13/4),
#: so its scope starts outside BETA_EXCEPTIONS. That set also holds the
#: fixed points 10 and 22, where no graph has fewer than n edges and
#: 4n > n + 13. Its member 5 changes nothing: 5 = 2 (mod 3).
QUARTER_EXCEPTIONS = BETA_EXCEPTIONS | {25}


def in_quarter_scope(n: int) -> bool:
    """Whether the quarter bounds (n+13)/4 edges and (n+9)/4 vertices are
    expected to hold at n: n != 2 (mod 3) and n outside QUARTER_EXCEPTIONS.
    This is the one quarter predicate; `check_bounds` classes n by it."""
    return n % 3 != 2 and n not in QUARTER_EXCEPTIONS


class Strategy(enum.Enum):
    THETA = "theta"
    CYCLE_GLUE = "cycle_glue"
    BOUQUET = "bouquet"
    VARIANT_TABLE = "variant_table"
    CYCLE_FALLBACK = "cycle_fallback"
    SEARCH = "search"  # used by the exhaustive oracles, never by build_witness


class ExceptionClass(enum.Enum):
    """Which bound families n is exempt from. No n is exempt from the third
    bounds alone, since every member of BETA_EXCEPTIONS is a quarter
    exception too."""

    #: Both the third and the quarter bounds are expected to hold.
    NONE = "none"
    #: Only the third bounds are expected: n = 2 (mod 3) or n = 25.
    QUARTER = "quarter_exceptional"
    #: n is in BETA_EXCEPTIONS: no simple graph meets the third-bound pair.
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
    bound_third: bool  # edges <= (n+7)/3
    bound_quarter: bool  # edges <= (n+13)/4
    vertex_bound_third: bool  # vertices <= (n+4)/3
    vertex_bound_quarter: bool  # vertices <= (n+9)/4
    exception_class: ExceptionClass


def _multi_factorizations(n: int) -> list[tuple[int, ...]]:
    """Nondecreasing factorizations of n into at least two parts >= 3."""
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

    rec(n, 3, [])
    return out


def _candidates(n: int):
    rep = cheapest_theta(n)
    if rep is not None:
        a, b, c = rep
        yield a + b + c, a + b + c - 1, Strategy.THETA, lambda a=a, b=b, c=c: build_theta(
            ThetaSpec(a, b, c)
        )
    for parts in _multi_factorizations(n):
        edges = sum(parts)
        vertices = edges - len(parts) + 1
        if len(parts) == 2:
            p, q = parts
            yield edges, vertices, Strategy.CYCLE_GLUE, lambda p=p, q=q: build_cycle_glue(p, q)
        else:
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
    if n in BETA_EXCEPTIONS:
        cls = ExceptionClass.BOTH
    elif in_quarter_scope(n):
        cls = ExceptionClass.NONE
    else:
        cls = ExceptionClass.QUARTER
    return BoundReport(
        n=n,
        bound_third=3 * w.edges <= n + 7,
        bound_quarter=4 * w.edges <= n + 13,
        vertex_bound_third=3 * w.vertices <= n + 4,
        vertex_bound_quarter=4 * w.vertices <= n + 9,
        exception_class=cls,
    )

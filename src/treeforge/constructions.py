"""Generators and closed-form counts for the graph families built from
theta graphs.

Theta_{a,b,c} is two anchor vertices joined by three internally disjoint
paths of lengths a, b, c; it has ab+ac+bc spanning trees. C_{a,b} glues an
a-cycle and a b-cycle at one vertex (a*b trees); a bouquet glues any number
of cycles at one vertex (product of lengths). Three decorated families add
one more path of length d to a theta graph:

  V0: between two interior vertices of the a-path,
  V1: between an anchor and a vertex of the a-path,
  V2: between interior vertices of the a-path and the b-path.

Their exact counts follow from deletion-contraction:

  tau(V0) = d*tau(Th(a,b,c)) + (a-a')*tau(Th(a',b,c)),  a' = a1+a2
  tau(V1) = d*tau(Th(a,b,c)) + a1*tau(Th(a-a1,b,c))
  tau(V2) = d*tau(Th(a,b,c)) + c(a1+b1)(a2+b2) + a1*a2*b + b1*b2*a

where a2 = a-a1 and b2 = b-b1 in the V2 formula, and Th(0,b,c) = bc is the
consistent extension of the closed form (the graph degenerates to C_{b,c}).

Generalizing to k internally disjoint paths gives the elementary symmetric
polynomial e_{k-1} of the lengths as the count.

Built graphs use a fixed layout: anchors are vertices 0 and 1, then path
interiors in (a, b, c, extra-path) order, so edge lists are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph_core import GraphError, Multigraph, Skeleton, add_path, subdivision
from .tree_count import TreeCount


@dataclass(frozen=True)
class ThetaSpec:
    """Path lengths of a theta graph; at most one may be 1 (simplicity)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 1:
            raise GraphError("theta path lengths must be positive")
        if sorted((self.a, self.b, self.c))[1] == 1:
            raise GraphError("not simple: at most one theta path may have length 1")

    @property
    def lengths(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class VariantSpec:
    """A theta graph plus one extra path of length d.

    kind selects the attachment pattern: "v0" joins two interior vertices
    of the a-path at distances a1 from one anchor and a2 from the other;
    "v1" joins the first anchor to the a-path vertex at distance a1 (a1 = a
    reaches the far anchor); "v2" joins interior vertices of the a-path and
    the b-path at distances a1 and b1 from the first anchor.
    """

    kind: str
    a: int
    b: int
    c: int
    d: int
    a1: int = 0
    a2: int = 0
    b1: int = 0

    def __post_init__(self):
        if self.kind not in ("v0", "v1", "v2"):
            raise GraphError(f"unknown variant kind {self.kind!r}")
        if min(self.a, self.b, self.c, self.d) < 1:
            raise GraphError("variant path lengths must be positive")
        err = _violation(
            self.kind, self.a, self.b, self.c, self.d, self.a1, self.a2, self.b1
        )
        if err is not None:
            raise GraphError(err)


def _violation(
    kind: str, a: int, b: int, c: int, d: int, a1: int, a2: int, b1: int
) -> str | None:
    """Name the violated simplicity constraint, or None if valid."""
    if b == 1 and c == 1:
        return "not simple: at most one theta path may have length 1"
    if kind == "v0":
        if a < 3:
            return "v0 requires a >= 3 (two interior attachment points)"
        if a1 < 1 or a2 < 1:
            return "v0 requires a1 >= 1 and a2 >= 1"
        if a1 + a2 >= a:
            return "v0 requires a1 + a2 < a (distinct interior points)"
        if d == 1 and a1 + a2 == a - 1:
            return "v0 requires d >= 2 when a1 + a2 = a - 1 (adjacent points)"
    elif kind == "v1":
        if a < 2:
            return "v1 requires a >= 2"
        if not (1 <= a1 <= a):
            return "v1 requires 1 <= a1 <= a"
        if d == 1 and a1 == 1:
            return "v1 requires d >= 2 when a1 = 1 (edge would be parallel)"
        if d == 1 and a1 == a and min(a, b, c) == 1:
            return (
                "v1 requires d >= 2 when a1 = a and some path has length 1 "
                "(edge would parallel the length-1 path)"
            )
    else:  # v2
        if a < 2 or b < 2:
            return "v2 requires a >= 2 and b >= 2"
        if a1 < 1 or b1 < 1:
            return "v2 requires a1 >= 1 and b1 >= 1"
        if a - a1 < 1 or b - b1 < 1:
            return "v2 requires a - a1 >= 1 and b - b1 >= 1 (interior points)"
    return None


@dataclass(frozen=True)
class BouquetSpec:
    """Cycles sharing one common vertex; every length must be >= 3."""

    cycle_lengths: tuple[int, ...]

    def __post_init__(self):
        if any(l < 3 for l in self.cycle_lengths):
            raise GraphError("bouquet cycle lengths must be >= 3")


# ---------------------------------------------------------------------------
# closed forms


def tau_theta(a: int, b: int, c: int) -> TreeCount:
    """ab + ac + bc; also valid at a = 0, where the graph degenerates to
    C_{b,c} with bc trees."""
    if min(a, b, c) < 0:
        raise GraphError("theta lengths must be nonnegative")
    return a * b + a * c + b * c


def tau_variant(spec: VariantSpec) -> TreeCount:
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    base = tau_theta(a, b, c)
    if spec.kind == "v0":
        ap = spec.a1 + spec.a2
        return d * base + (a - ap) * tau_theta(ap, b, c)
    if spec.kind == "v1":
        return d * base + spec.a1 * tau_theta(a - spec.a1, b, c)
    a1, b1 = spec.a1, spec.b1
    a2, b2 = a - a1, b - b1
    return d * base + c * (a1 + b1) * (a2 + b2) + a1 * a2 * b + b1 * b2 * a


def tau_generalized_theta(lengths: Sequence[int]) -> TreeCount:
    """e_{k-1}(lengths), in one pass: with E = e_{j-1} and P = e_j of the
    first j lengths, the next length l gives E*l + P and P*l."""
    total, prod = 0, 1
    for l in lengths:
        total, prod = total * l + prod, prod * l
    return total


# ---------------------------------------------------------------------------
# builders


def build_theta(spec: ThetaSpec) -> Multigraph:
    """Simple theta graph on a+b+c-1 vertices with a+b+c edges."""
    return subdivision(Skeleton(2, ((0, 1),) * 3), spec.lengths)


def build_cycle_glue(a: int, b: int) -> Multigraph:
    """C_{a,b}: an a-cycle and a b-cycle sharing vertex 0."""
    if a < 3 or b < 3:
        raise GraphError("glued cycles need length >= 3")
    return build_bouquet(BouquetSpec((a, b)))


def build_bouquet(spec: BouquetSpec) -> Multigraph:
    """Cycles of the given lengths all identified at vertex 0."""
    lengths = spec.cycle_lengths
    return subdivision(Skeleton(1, ((0, 0),) * len(lengths)), lengths)


def tau_bouquet(spec: BouquetSpec) -> TreeCount:
    prod = 1
    for l in spec.cycle_lengths:
        prod *= l
    return prod


def build_generalized_theta(lengths: Sequence[int]) -> Multigraph:
    """k >= 3 internally disjoint paths between two anchors."""
    if len(lengths) < 3:
        raise GraphError("generalized theta needs at least 3 paths")
    if any(l < 1 for l in lengths):
        raise GraphError("path lengths must be positive")
    if sum(1 for l in lengths if l == 1) > 1:
        raise GraphError("not simple: at most one path may have length 1")
    return subdivision(Skeleton(2, ((0, 1),) * len(lengths)), lengths)


def build_variant(spec: VariantSpec) -> Multigraph:
    """Theta graph plus the extra d-path; a+b+c+d edges, simple."""
    a, b = spec.a, spec.b
    g = build_theta(ThetaSpec(a, b, spec.c))
    # vertices along the a-path and the b-path, from anchor 0 to anchor 1
    pa = [0, *range(2, a + 1), 1]
    pb = [0, *range(a + 1, a + b), 1]
    if spec.kind == "v0":
        x, y = pa[spec.a1], pa[a - spec.a2]
    elif spec.kind == "v1":
        x, y = 0, pa[spec.a1]
    else:
        x, y = pa[spec.a1], pb[spec.b1]
    return add_path(g, x, y, spec.d)


# ---------------------------------------------------------------------------
# sweeps and the CLI spec-string syntax


def iter_theta_specs(max_sum: int) -> Iterator[ThetaSpec]:
    """All valid specs with a <= b <= c and a+b+c <= max_sum."""
    for a in range(1, max_sum + 1):
        for b in range(a, max_sum + 1):
            for c in range(b, max_sum + 1):
                if a + b + c > max_sum:
                    break
                if b == 1:  # a = b = 1 is the only way b can be 1
                    continue
                yield ThetaSpec(a, b, c)


def iter_variant_specs(max_total: int) -> Iterator[VariantSpec]:
    """All valid variant specs with a+b+c+d <= max_total.

    b and c run over unordered pairs for v0/v1 (the two undecorated paths
    are interchangeable); v2 keeps b and c in their roles.
    """
    for a in range(1, max_total + 1):
        for b in range(1, max_total + 1):
            for c in range(1, max_total + 1):
                for d in range(1, max_total + 1):
                    if a + b + c + d > max_total:
                        break
                    for spec in _variants_for(a, b, c, d):
                        yield spec


def _variants_for(a: int, b: int, c: int, d: int) -> Iterator[VariantSpec]:
    for a1 in range(1, a):
        for a2 in range(1, a - a1):
            if _violation("v0", a, b, c, d, a1, a2, 0) is None:
                yield VariantSpec("v0", a, b, c, d, a1=a1, a2=a2)
    for a1 in range(1, a + 1):
        if _violation("v1", a, b, c, d, a1, 0, 0) is None:
            yield VariantSpec("v1", a, b, c, d, a1=a1)
    for a1 in range(1, a):
        for b1 in range(1, b):
            if _violation("v2", a, b, c, d, a1, 0, b1) is None:
                yield VariantSpec("v2", a, b, c, d, a1=a1, b1=b1)


#: The decorated thetas of the paper's Table 1 with their counts; `treeforge
#: verify table1` checks each against tau_variant and a built graph.
TABLE1_ROWS: list[tuple[VariantSpec, int]] = [
    (VariantSpec("v1", 3, 2, 1, 1, a1=2), 21),
    (VariantSpec("v2", 3, 2, 1, 1, a1=1, b1=1), 24),
    (VariantSpec("v1", 4, 2, 1, 1, a1=2), 30),
    (VariantSpec("v2", 4, 2, 1, 1, a1=1, b1=1), 32),
    (VariantSpec("v2", 4, 2, 1, 1, a1=2, b1=1), 35),
    (VariantSpec("v0", 4, 2, 1, 1, a1=1, a2=1), 30),
    (VariantSpec("v1", 3, 3, 1, 1, a1=2), 29),
    (VariantSpec("v2", 3, 3, 1, 1, a1=1, b1=1), 35),
    (VariantSpec("v2", 3, 3, 1, 1, a1=1, b1=2), 36),
    (VariantSpec("v2", 2, 2, 2, 1, a1=1, b1=1), 24),
    (VariantSpec("v1", 2, 2, 2, 1, a1=2), 20),
    (VariantSpec("v1", 3, 2, 2, 1, a1=2), 32),
    (VariantSpec("v2", 3, 2, 2, 1, a1=1, b1=1), 35),
    (VariantSpec("v2", 2, 2, 3, 1, a1=1, b1=1), 32),
]


#: Most vertices parse_construction builds. `count --spec theta:999997,2,2`,
#: at the ceiling, takes 2.9 s of CPU time at a peak RSS of 507 MB (CPython
#: 3.11, 2-vCPU VM); theta:1000000000,2,3 would need hundreds of GB.
SPEC_VERTEX_CEILING = 10**6


def parse_construction(text: str) -> tuple[Multigraph, TreeCount]:
    """Parse the CLI family syntax and return (graph, closed-form count).

    Accepted forms: ``theta:a,b,c`` ``glue:a,b`` ``bouquet:c1+c2+...``
    ``v0:a,b,c,d;a1,a2`` ``v1:a,b,c,d;a1`` ``v2:a,b,c,d;a1,b1``
    ``gen:l1+l2+...``

    A construction of more than SPEC_VERTEX_CEILING vertices raises
    GraphError before anything is built: its vertex count follows from the
    lengths.
    """
    try:
        head, rest = text.split(":", 1)
    except ValueError:
        raise GraphError(f"bad construction {text!r}: expected 'family:params'") from None
    head = head.strip().lower()

    def ints(s: str, sep: str, count: int | None = None) -> list[int]:
        try:
            values = [int(x) for x in s.split(sep)]
        except ValueError:
            raise GraphError(f"bad construction parameters {s!r}") from None
        if count is not None and len(values) != count:
            raise GraphError(
                f"bad construction parameters {s!r}: expected {count}, got {len(values)}"
            )
        return values

    def fits(vertices: int) -> None:
        if vertices > SPEC_VERTEX_CEILING:
            raise GraphError(
                f"construction {text!r} has {vertices} vertices, "
                f"more than the ceiling of {SPEC_VERTEX_CEILING}"
            )

    if head == "theta":
        a, b, c = ints(rest, ",", 3)
        spec = ThetaSpec(a, b, c)
        fits(a + b + c - 1)
        return build_theta(spec), tau_theta(a, b, c)
    if head == "glue":
        a, b = ints(rest, ",", 2)
        fits(a + b - 1)
        return build_cycle_glue(a, b), a * b
    if head == "bouquet":
        spec = BouquetSpec(tuple(ints(rest, "+")))
        fits(1 + sum(l - 1 for l in spec.cycle_lengths))
        return build_bouquet(spec), tau_bouquet(spec)
    if head == "gen":
        lengths = ints(rest, "+")
        fits(2 + sum(l - 1 for l in lengths))
        return build_generalized_theta(lengths), tau_generalized_theta(lengths)
    if head in ("v0", "v1", "v2"):
        try:
            main, offs = rest.split(";", 1)
        except ValueError:
            raise GraphError(f"bad construction {text!r}: expected ';' before offsets") from None
        a, b, c, d = ints(main, ",", 4)
        offsets = ints(offs, ",", 1 if head == "v1" else 2)
        if head == "v0":
            spec = VariantSpec("v0", a, b, c, d, a1=offsets[0], a2=offsets[1])
        elif head == "v1":
            spec = VariantSpec("v1", a, b, c, d, a1=offsets[0])
        else:
            spec = VariantSpec("v2", a, b, c, d, a1=offsets[0], b1=offsets[1])
        fits(a + b + c + d - 2)
        return build_variant(spec), tau_variant(spec)
    raise GraphError(f"unknown construction family {head!r}")


# The decorated-theta witnesses used for counts with no product or theta
# representation: 30, 37 and 58 admit 8-, 9- and 10-edge graphs this way.
VARIANT_WITNESSES: dict[int, VariantSpec] = {
    30: VariantSpec("v0", a=4, b=1, c=2, d=1, a1=1, a2=1),
    37: VariantSpec("v1", a=3, b=1, c=4, d=1, a1=2),
    58: VariantSpec("v1", a=4, b=3, c=2, d=1, a1=2),
}

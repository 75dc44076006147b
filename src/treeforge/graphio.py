"""Text formats for graphs.

Edge-list format: '#' starts a comment, the first significant line is a
header ``p <vertex_count>``, and every following line is ``u v`` or
``u v m`` with 0-based endpoints and an optional multiplicity column.

graph6: the standard printable encoding for simple graphs. Multigraphs
have no graph6 form and are rejected on write; parallel input bits cannot
occur on read.
"""

from __future__ import annotations

from .graph_core import GraphError, Multigraph, is_simple


class ParseError(ValueError):
    """Input text does not encode a graph; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_edge_list(text: str) -> Multigraph:
    """Read the edge-list format in one pass: every line is checked as
    Multigraph.from_edges would check it, with its line number, and
    repeated pairs add up their multiplicities."""
    n = None
    acc: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "p" or len(fields) != 2:
                raise ParseError("expected header 'p <vertex_count>'", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[1]!r}", lineno) from None
            if n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
            continue
        if len(fields) not in (2, 3):
            raise ParseError("expected 'u v' or 'u v m'", lineno)
        try:
            nums = [int(f) for f in fields]
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        u, v = nums[0], nums[1]
        m = nums[2] if len(nums) == 3 else 1
        # the checks of Multigraph.from_edges, with the line number
        if u == v:
            raise ParseError(f"loop at vertex {u} not allowed", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range for {n} vertices", lineno)
        if m < 1:
            raise ParseError(f"multiplicity {m} must be >= 1", lineno)
        key = (u, v) if u < v else (v, u)
        acc[key] = acc.get(key, 0) + m
    if n is None:
        raise ParseError("empty input: missing 'p <vertex_count>' header")
    return Multigraph(n, tuple(sorted((u, v, m) for (u, v), m in acc.items())))


def format_edge_list(g: Multigraph) -> str:
    lines = [f"p {g.vertex_count}"]
    for u, v, m in g.edges:
        lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6


def _g6_number(n: int) -> bytes:
    if n < 0:
        raise GraphError("graph6 cannot encode negative sizes")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise GraphError("graph too large for this graph6 writer")


def format_graph6(g: Multigraph) -> str:
    if not is_simple(g):
        raise GraphError("graph6 encodes simple graphs only; use the edge-list format")
    n = g.vertex_count
    adj = {(u, v) for u, v, _ in g.edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    data = bytearray(_g6_number(n))
    for k in range(0, len(bits), 6):
        word = 0
        for b in bits[k : k + 6]:
            word = (word << 1) | b
        data.append(word + 63)
    return data.decode("ascii")


def parse_graph6(text: str) -> Multigraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 input")
    if not s.isascii():
        raise ParseError("graph6 text must be ASCII")
    data = s.encode("ascii")
    if any(b < 63 or b > 126 for b in data):
        raise ParseError("invalid graph6 byte")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise ParseError("unsupported graph6 size prefix")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for b in body:
        word = b - 63
        bits.extend((word >> k) & 1 for k in range(5, -1, -1))
    pairs = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                pairs.append((i, j))
            idx += 1
    return Multigraph.from_edges(n, pairs)


def load_graph(text: str, fmt: str | None = None) -> Multigraph:
    """Parse either supported format, auto-detecting when ``fmt`` is None."""
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt is not None:
        raise ParseError(f"unknown format {fmt!r}")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("p ") or line == "p":
            return parse_edge_list(text)
        return parse_graph6(text)
    raise ParseError("empty input")

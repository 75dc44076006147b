"""Text formats for graphs.

Edge-list format: '#' starts a comment, the first significant line is a
header ``p <vertex_count>``, and every following line is ``u v`` or
``u v m`` with 0-based endpoints and an optional multiplicity column.
Lines end at LF, CR LF or CR; other Unicode line breaks are blanks.
Every number is written in ASCII digits with an optional sign: no '_'
separators and no other digits.

graph6: the standard printable encoding for simple graphs. Multigraphs
have no graph6 form and are rejected on write; parallel input bits cannot
occur on read.
"""

from __future__ import annotations

from .graph_core import GraphError, Multigraph, _clip, edge_triples, is_simple


class ParseError(ValueError):
    """Input text does not encode a graph; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_edge_list(text: str) -> Multigraph:
    """Read the edge-list format in one pass: every line is checked with its
    line number, by the checks of graph_core.edge_triples for its pair, and
    repeated pairs add up their multiplicities."""
    lines = _lines(text)
    first = _first_line(lines)
    if first is None:
        raise ParseError("empty input: missing 'p <vertex_count>' header")
    return _edge_list(text, lines, *first)


def _lines(text: str) -> list[str]:
    """The lines of text, each ended by LF, CR LF or CR only, so line
    numbers are those that wc -l and editors show. str.splitlines would
    also end a line at form feed, U+001C to U+001E, U+0085, U+2028 and
    U+2029, which str.split() reads as blanks inside a line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _first_line(lines: list[str]) -> tuple[int, str] | None:
    """The index of the first line that is neither blank nor only a
    comment, and that line without its comment and surrounding blanks."""
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if line:
            return i, line
    return None


def _quote(text: str) -> str:
    """repr(text), cut as graph_core._clip cuts it."""
    return _clip(text, repr)


def _ascii_int(field: str) -> int:
    """int(field), refusing the '_' separators and non-ASCII digits that
    int() takes."""
    if "_" in field or not field.isascii():
        raise ValueError(f"not an ASCII integer: {field!r}")
    return int(field)


def _edge_list(text: str, lines: list[str], first: int, header: str) -> Multigraph:
    """The edge-list graph of text, whose lines are lines and whose header
    line is lines[first]."""
    lineno = first + 1
    fields = header.split()
    if fields[0] != "p" or len(fields) != 2:
        raise ParseError("expected header 'p <vertex_count>'", lineno)
    # int() alone reads ASCII text without '_' exactly as the format says
    to_int = int if text.isascii() and "_" not in text else _ascii_int
    try:
        n = to_int(fields[1])
    except ValueError:
        raise ParseError(f"bad vertex count {_quote(fields[1])}", lineno) from None
    if n < 0:
        raise ParseError("vertex count must be nonnegative", lineno)

    def entries():
        # one (u, v) or (u, v, m) tuple per edge line; lineno is the line
        # of the entry edge_triples reads, so it can name a line it rejects
        nonlocal lineno
        for lineno, raw in enumerate(lines[first + 1 :], first + 2):
            if "#" in raw:
                raw = raw[: raw.index("#")]
            fields = raw.split()
            if not fields:
                continue
            size = len(fields)
            if size != 2 and size != 3:
                raise ParseError("expected 'u v' or 'u v m'", lineno)
            try:
                if size == 2:
                    entry = to_int(fields[0]), to_int(fields[1])
                else:
                    entry = to_int(fields[0]), to_int(fields[1]), to_int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer field in {_quote(raw.strip())}", lineno) from None
            yield entry

    try:
        return Multigraph(n, edge_triples(n, entries()))
    except GraphError as exc:
        raise ParseError(str(exc), lineno) from None


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


def load_graph(text: str) -> Multigraph:
    """Parse either supported format, as its first significant line says. A
    graph6 line holds only bytes 63-126, so it has no blanks and is never
    the token 'p': such a line starts an edge list, any other line graph6."""
    lines = _lines(text)
    first = _first_line(lines)
    if first is None:
        raise ParseError("empty input")
    fields = first[1].split()
    if len(fields) > 1 or fields[0] == "p":
        return _edge_list(text, lines, *first)
    return parse_graph6(text)

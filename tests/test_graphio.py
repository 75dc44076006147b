import re

import networkx as nx
import pytest

from treeforge.graph_core import GraphError, Multigraph, complete_graph, cycle_graph
from treeforge.graphio import (
    ParseError,
    format_edge_list,
    format_graph6,
    load_graph,
    parse_edge_list,
    parse_graph6,
)


def test_edge_list_round_trip():
    g = Multigraph.from_edges(4, [(0, 1), (1, 2, 3), (2, 3)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# a comment\n\np 3  # header\n0 1\n1 2 2  # doubled\n"
    g = parse_edge_list(text)
    assert g.vertex_count == 3
    assert g.multiplicity(1, 2) == 2


def test_edge_list_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_edge_list("0 1\n")


def test_edge_list_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("p 3\n0 1\n0 x\n")


def test_edge_list_rejects_loop_with_location():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("p 3\n1 1\n")


@pytest.mark.parametrize("entry", [(1, 1, 1), (0, 3, 1), (-1, 2, 1), (0, 1, 0)])
def test_edge_errors_match_from_edges(entry):
    # the parser checks each line itself, with from_edges' messages; the
    # first bad line is reported, also before a later non-integer line
    with pytest.raises(GraphError) as want:
        Multigraph.from_edges(3, [entry])
    with pytest.raises(ParseError) as got:
        parse_edge_list("p 3\n0 1\n%d %d %d\n0 x\n" % entry)
    assert str(got.value) == f"line 3: {want.value}"


HEADER = "expected header 'p <vertex_count>'"
FIELDS = "expected 'u v' or 'u v m'"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", None, "empty input: missing 'p <vertex_count>' header"),
        ("# only a comment\n\n  \n", None, "empty input: missing 'p <vertex_count>' header"),
        ("0 1\n", 1, HEADER),
        ("\n# c\n0 1\np 3\n", 3, HEADER),
        ("p 3 4\n0 1\n", 1, HEADER),
        ("p\n", 1, HEADER),
        ("q 3\n", 1, HEADER),
        ("p x\n0 1\n", 1, "bad vertex count 'x'"),
        ("p -1\n", 1, "vertex count must be nonnegative"),
        ("p 3\n0\n", 2, FIELDS),
        ("p 3\n0 1 1 1\n", 2, FIELDS),
        ("p 3\nx\n", 2, FIELDS),  # the field count is checked first
        ("p 3\n0 x 1 1\n", 2, FIELDS),
        ("p 3\n0 x\n", 2, "non-integer field in '0 x'"),
        ("p 3\n0 1 1.5\n", 2, "non-integer field in '0 1 1.5'"),
        ("p 3\n 0  x\t# note\n", 2, "non-integer field in '0  x'"),
        ("p 3\n1 1\n", 2, "loop at vertex 1 not allowed"),
        ("p 3\n1 1 0\n", 2, "loop at vertex 1 not allowed"),  # before the multiplicity
        ("p 3\n0 3\n", 2, "edge (0,3) out of range for 3 vertices"),
        ("p 3\n3 0\n", 2, "edge (3,0) out of range for 3 vertices"),
        ("p 3\n-1 2\n", 2, "edge (-1,2) out of range for 3 vertices"),
        ("p 0\n0 1\n", 2, "edge (0,1) out of range for 0 vertices"),
        ("p 3\n0 1 0\n", 2, "multiplicity 0 must be >= 1"),
        ("p 3\n0 1 -2\n", 2, "multiplicity -2 must be >= 1"),
        ("# head\n\np 3\n  \n# c\n0 1\n\n1 x\n", 8, "non-integer field in '1 x'"),
        ("p 3\r\n0\t1\r\n1 2 # c\r\n0 1 x\r\n", 4, "non-integer field in '0 1 x'"),
        ("p 3\n0 1\n1 2 3\n2 2\n0 x\n", 4, "loop at vertex 2 not allowed"),  # the first bad line
        ("p\t3\n0 x\n", 2, "non-integer field in '0 x'"),  # a tab after the p
        ("p 1_000\n0 1\n", 1, "bad vertex count '1_000'"),
        ("p \u0663\n0 1\n", 1, "bad vertex count '\u0663'"),  # Arabic-Indic 3
        ("p \uff13\n", 1, "bad vertex count '\uff13'"),  # fullwidth 3
        ("p 30\n1_0 2\n", 2, "non-integer field in '1_0 2'"),
        ("p 3\n0 \u0661\n", 2, "non-integer field in '0 \u0661'"),
        ("p 3\n\u0660 1 2\n", 2, "non-integer field in '\u0660 1 2'"),
        ("p 3\n0 1 1_0\n", 2, "non-integer field in '0 1 1_0'"),
        ("p 3\n0 1 \u0662\n", 2, "non-integer field in '0 1 \u0662'"),
        ("# caf\u00e9\np 3\n0 1\n1 2_\n", 4, "non-integer field in '1 2_'"),
        # lines end at LF, CR LF and CR only; other line breaks are blanks
        ("p 3\u20280 1\n1 x", 1, HEADER),
        ("p 3\x0c0 1\n", 1, HEADER),
        ("p 3\n0 1\x0c1 2\n", 2, FIELDS),
        ("p 3\n0 1\u20291 2\n", 2, FIELDS),
        ("p 3\x1c\x1d\x1e\n0 1\n1 x\n", 3, "non-integer field in '1 x'"),
        ("p 3\u2029\n0 x\n", 2, "non-integer field in '0 x'"),
        ("p 3\n0 1\x85x\n", 2, "non-integer field in '0 1\\x85x'"),
        ("p 3\r0 1\r1 x\r", 3, "non-integer field in '1 x'"),
        ("p 3\n\r0 1\r\n\n1 x\n", 5, "non-integer field in '1 x'"),
    ],
)
def test_edge_list_error_contract(text, line, message):
    want = message if line is None else f"line {line}: {message}"
    readers = [parse_edge_list]
    lines = re.split("\r\n|\r|\n", text)
    significant = [s for s in (raw.split("#")[0].strip() for raw in lines) if s]
    if significant and (significant[0] == "p" or len(significant[0].split()) > 1):
        readers.append(load_graph)  # detected as an edge list
    for read in readers:
        with pytest.raises(ParseError) as exc:
            read(text)
        assert str(exc.value) == want
        assert exc.value.line == line


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p 3\n0 " + "x" * 58 + "\n", 2, "non-integer field in '0 " + "x" * 58 + "'"),
        ("p 3\n0 " + "x" * 59 + "\n", 2, "non-integer field in '0 " + "x" * 58 + "'... (61 characters)"),
        ("p 3\n0 " + "1" * 5000 + "\n", 2, "non-integer field in '0 " + "1" * 58 + "'... (5002 characters)"),
        ("p " + "1" * 5000 + "\n0 1\n", 1, "bad vertex count '" + "1" * 60 + "'... (5000 characters)"),
        ("p " + "\u0663" * 61 + "\n", 1, "bad vertex count '" + "\u0663" * 60 + "'... (61 characters)"),
        # numbers that parse are cut the same way, without quotes
        (
            "p 3\n0 " + "1" * 4000 + "\n",
            2,
            "edge (0," + "1" * 60 + "... (4000 characters)) out of range for 3 vertices",
        ),
        ("p 3\n0 1 -" + "1" * 4000 + "\n", 2, "multiplicity -" + "1" * 59 + "... (4001 characters) must be >= 1"),
        (
            "p " + "2" * 4000 + "\n-1 0\n",
            2,
            "edge (-1,0) out of range for " + "2" * 60 + "... (4000 characters) vertices",
        ),
    ],
    ids=[
        "60 characters",
        "61 characters",
        "long edge line",
        "long header field",
        "non-ASCII field",
        "long label",
        "long multiplicity",
        "long header count",
    ],
)
def test_long_quotes_are_cut(text, line, message):
    # a quoted line or field, or a number, keeps its first 60 characters
    # and gives its length
    for read in (parse_edge_list, load_graph):
        with pytest.raises(ParseError) as exc:
            read(text)
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line


def test_edge_list_line_ends_tabs_and_comments():
    text = "# a graph\r\np 4 # four\r\n\r\n0\t1\r\n 1 2 2 # doubled\r\n\t2  3\t#\r\n1 0 3"
    want = Multigraph(4, ((0, 1, 4), (1, 2, 2), (2, 3, 1)))
    assert parse_edge_list(text) == want
    assert load_graph(text) == want
    # a tab may follow the p, and non-ASCII text in comments is only a comment
    for text in (
        "p\t4\n0 1 4\n1 2 2\n2 3",
        "# gr\u00e4ph \u0663\r\np\t4\t# vier\r\n0\t1 4\n1 2 2\n3 2\n",
        "p 4\x0c\n0 1\u20284\n1\x852 2\x1c\r2\u20293",  # blanks, not line ends
    ):
        assert parse_edge_list(text) == want
        assert load_graph(text) == want


def test_load_graph_matches_from_edges(rng):
    # repeated pairs, in either orientation, with and without a
    # multiplicity column, add up as from_edges adds them; the triples are
    # sorted (u, v, m) with u < v, one per pair
    for _ in range(300):
        n = rng.randint(2, 9)
        entries = []
        for _ in range(rng.randint(0, 30)):
            u, v = rng.sample(range(n), 2)
            entries.append((u, v) if rng.random() < 0.5 else (u, v, rng.randint(1, 4)))
        text = f"p {n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in entries)
        assert load_graph(text) == Multigraph.from_edges(n, entries)
    for n in (60, 700, 2000):
        entries = [(u, v) for u in range(n) for v in range(u + 1, min(n, u + 4))][:2000]
        entries = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in entries]
        entries += [(*rng.sample(range(n), 2), rng.randint(1, 3)) for _ in range(200)]
        rng.shuffle(entries)
        text = f"p {n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in entries)
        g = load_graph(text)
        assert g == Multigraph.from_edges(n, entries)
        acc = {}
        for u, v, *m in entries:
            acc[min(u, v), max(u, v)] = acc.get((min(u, v), max(u, v)), 0) + (m[0] if m else 1)
        assert g.edges == tuple(sorted((u, v, m) for (u, v), m in acc.items()))


def test_graph6_round_trip():
    for g in (cycle_graph(5), complete_graph(6), Multigraph(3, ()), Multigraph(1, ())):
        assert parse_graph6(format_graph6(g)) == g


def test_graph6_matches_networkx():
    for g in (cycle_graph(7), complete_graph(5)):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.vertex_count))  # keep label order
        nxg.add_edges_from((u, v) for u, v, _ in g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert format_graph6(g) == theirs
        assert parse_graph6(theirs) == g


def test_graph6_rejects_multigraph():
    with pytest.raises(GraphError, match="simple"):
        format_graph6(Multigraph.from_edges(2, [(0, 1, 2)]))


def test_graph6_header_stripped():
    s = ">>graph6<<" + format_graph6(cycle_graph(4))
    assert parse_graph6(s) == cycle_graph(4)


def test_load_graph_autodetect():
    assert load_graph("p 3\n0 1\n1 2\n").vertex_count == 3
    assert load_graph(format_graph6(cycle_graph(5))) == cycle_graph(5)
    with pytest.raises(ParseError):
        load_graph("")
    # a first line with blanks is an edge list, even without its header
    for text, line in (("0 1\n1 2\n", 1), ("# c\n\t0\t1\n", 2), ("p\n0 1\n", 1)):
        with pytest.raises(ParseError) as exc:
            load_graph(text)
        assert str(exc.value) == f"line {line}: expected header 'p <vertex_count>'"


def test_graph6_long_size_form():
    g = cycle_graph(70)
    s = format_graph6(g)
    assert s[0] == chr(126)
    assert parse_graph6(s) == g

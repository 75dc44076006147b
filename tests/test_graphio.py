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


def test_load_graph_matches_from_edges(rng):
    # repeated pairs, in either orientation, with and without a
    # multiplicity column, add up as from_edges adds them
    for _ in range(300):
        n = rng.randint(2, 9)
        entries = []
        for _ in range(rng.randint(0, 30)):
            u, v = rng.sample(range(n), 2)
            entries.append((u, v) if rng.random() < 0.5 else (u, v, rng.randint(1, 4)))
        text = f"p {n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in entries)
        assert load_graph(text) == Multigraph.from_edges(n, entries)


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


def test_graph6_long_size_form():
    g = cycle_graph(70)
    s = format_graph6(g)
    assert s[0] == chr(126)
    assert parse_graph6(s) == g

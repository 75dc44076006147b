import dataclasses
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import treeforge
from treeforge import cli, constructions, tree_count
from treeforge.cli import main
from treeforge.graph_core import Skeleton, complete_graph, cycle_graph, subdivision
from treeforge.graphio import format_edge_list, format_graph6
from treeforge.minimal_builder import ExceptionClass

from oracles import grid_graph, shuffled, square_of_cycle

PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, out",
    [(("count", "--spec", "theta:2,3,4"), 0, "26\n"), (("alpha", "25", "--max-vertices", "12"), 2, "")],
    ids=["count", "exit 2"],
)
def test_python_m_treeforge(argv, code, out):
    # the package runs as a module, with main's exit code
    src = str(Path(treeforge.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "treeforge", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert (proc.stderr == "") == (code == 0)


def test_count_k4(tmp_path, capsys):
    f = tmp_path / "k4.txt"
    f.write_text(format_edge_list(complete_graph(4)))
    code, out, _ = run(capsys, "count", str(f))
    assert code == 0 and out.strip() == "16"


def test_count_graph6(tmp_path, capsys):
    f = tmp_path / "c5.g6"
    f.write_text(format_graph6(cycle_graph(5)) + "\n")
    code, out, _ = run(capsys, "count", str(f))
    assert code == 0 and out.strip() == "5"


def test_count_both_methods_petersen(tmp_path, capsys):
    f = tmp_path / "petersen.txt"
    f.write_text("p 10\n" + "\n".join(f"{u} {v}" for u, v in PETERSEN) + "\n")
    code, out, _ = run(capsys, "count", str(f), "--method", "both")
    assert code == 0 and out.strip() == "2000"


def test_count_shuffled_theta(tmp_path, capsys):
    # the count workload's theta shape, through load_graph and tau_matrix
    a, b, c = 620, 640, 660
    g = shuffled(subdivision(Skeleton(2, ((0, 1),) * 3), [a, b, c]), random.Random(620))
    f = tmp_path / "theta.txt"
    f.write_text(format_edge_list(g))
    code, out, _ = run(capsys, "count", str(f))
    assert code == 0 and out.strip() == str(a * b + b * c + a * c)


def test_count_both_methods_shuffled_grid(tmp_path, capsys):
    # one printed value means the matrix and deletion-contraction agree
    f = tmp_path / "grid.txt"
    f.write_text(format_edge_list(shuffled(grid_graph(4, 4), random.Random(44))))
    code, out, _ = run(capsys, "count", str(f), "--method", "both")
    assert code == 0 and out.strip() == "100352"


def test_count_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("p 3\n0 zebra\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 2 and "line 2" in err


def test_count_disconnected_warns(tmp_path, capsys):
    f = tmp_path / "disc.txt"
    f.write_text("p 4\n0 1\n2 3\n")
    code, out, err = run(capsys, "count", str(f))
    assert code == 0 and out.strip() == "0" and "disconnected" in err


def test_count_huge_header_both_methods(tmp_path, capsys):
    # both methods answer 0 from the pair count, before any per-vertex work
    f = tmp_path / "huge.txt"
    f.write_text("p 1000000\n0 1\n2 3\n")
    code, out, _ = run(capsys, "count", str(f), "--method", "both")
    assert code == 0 and out.strip() == "0"


def test_count_json_schema(tmp_path, capsys):
    f = tmp_path / "k4.txt"
    f.write_text(format_edge_list(complete_graph(4)))
    code, out, _ = run(capsys, "count", str(f), "--json", "--method", "both")
    doc = json.loads(out)
    assert doc["outputs"]["tau"] == "16"  # decimal string, not a number
    assert set(doc) == {"command", "inputs", "outputs", "timing_ms", "version"}


def test_count_spec(capsys):
    code, out, _ = run(capsys, "count", "--spec", "theta:2,3,4")
    assert code == 0 and out.strip() == "26"


@pytest.mark.parametrize("method", ["matrix", "dc", "both"])
def test_count_spec_checks_the_closed_form(capsys, monkeypatch, method):
    # the count printed is compared with the family's closed form
    parse = cli.parse_construction
    monkeypatch.setattr(cli, "parse_construction", lambda text: (parse(text)[0], 27))
    code, out, err = run(capsys, "count", "--spec", "theta:2,3,4", "--method", method)
    assert code == 1 and out == ""
    assert err == f"closed-form disagreement: {method}=26 closed_form=27\n"


@pytest.mark.parametrize(
    "spec",
    [
        "theta:1000000000,2,3",
        "glue:3,1000000000000",
        "bouquet:3+1000001",
        "gen:2+3+999999",
        "v1:1000000,2,1,1;2",
    ],
)
def test_count_spec_above_the_ceiling_builds_nothing(capsys, monkeypatch, spec):
    def forbidden(*args, **kwargs):
        raise AssertionError("a graph above the ceiling was built")

    for name in ("subdivision", "add_path"):
        monkeypatch.setattr(constructions, name, forbidden)
    code, out, err = run(capsys, "count", "--spec", spec)
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert f"more than the ceiling of {constructions.SPEC_VERTEX_CEILING}" in err


def test_count_spec_at_the_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "SPEC_VERTEX_CEILING", 11)
    code, out, _ = run(capsys, "count", "--spec", "theta:4,4,4")  # 11 vertices
    assert code == 0 and out.strip() == "48"
    code, out, err = run(capsys, "count", "--spec", "theta:4,4,5")
    assert code == 2 and out == "" and "12 vertices" in err


@pytest.mark.parametrize("flag", [None, "--json"])
def test_count_past_the_int_str_digit_limit(capsys, flag):
    # 20000 * 2**19999 has 6,025 digits, past the 4,300 that str(int) writes
    argv = ["count", "--spec", "gen:" + "+".join(["2"] * 20000)] + ([flag] if flag else [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    digits = json.loads(out)["outputs"]["tau"] if flag else out.strip()
    assert len(digits) == 6025 and Decimal(digits) == 20000 * 2**19999


def test_count_field_past_the_int_str_digit_limit_exit_2(tmp_path, capsys):
    f = tmp_path / "long_field.txt"
    f.write_text("p 3\n0 " + "1" * 5000 + "\n")
    code, out, err = run(capsys, "count", str(f))
    assert code == 2 and out == "" and "line 2" in err


@pytest.mark.parametrize(
    "text", ["p 3\n0 " + "1" * 5000 + "\n", "p " + "1" * 5000 + "\n0 1\n"], ids=["edge line", "header"]
)
def test_count_long_parse_error_is_one_short_line(tmp_path, capsys, text):
    f = tmp_path / "long.txt"
    f.write_text(text)
    code, out, err = run(capsys, "count", str(f))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("characters)\n") and len(err) < 150


def test_construct_30(capsys):
    code, out, _ = run(capsys, "construct", "30", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["witness"]["edges"] == 8
    assert doc["outputs"]["witness"]["tau"] == "30"


def test_construct_4_flagged_exceptional(capsys):
    code, out, _ = run(capsys, "construct", "4", "--json")
    doc = json.loads(out)
    w = doc["outputs"]["witness"]
    assert w["strategy"] == "cycle_fallback" and w["vertices"] == 4
    assert "beta" in doc["outputs"]["bounds"]["exception_class"]


def test_construct_rejects_small(capsys):
    code, _, err = run(capsys, "construct", "2")
    assert code == 2


def test_scan_violations(capsys):
    code, out, _ = run(capsys, "scan", "3", "100", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["edges_third_violations"] == [4, 5, 6, 7, 9, 10, 13, 18, 22]
    # same quarter scope as `verify bounds`: the fixed points 10 and 22 are out
    assert summary["edges_quarter_violations_in_scope"] == []
    rows = [json.loads(l) for l in lines[:-1]]
    assert len(rows) == 98 and rows[0]["n"] == 3
    assert (
        rows[10 - 3]["exception_class"]
        == rows[22 - 3]["exception_class"]
        == "beta_and_quarter_exceptional"
    )


def test_scan_and_verify_bounds_read_the_reported_class(capsys, monkeypatch):
    # both commands take n's exception class from check_bounds' report:
    # reported as exempt from nothing, 10 and 22 fail the quarter bounds
    check_bounds = cli.check_bounds

    def exempt_from_nothing(n, w):
        return dataclasses.replace(check_bounds(n, w), exception_class=ExceptionClass.NONE)

    monkeypatch.setattr(cli, "check_bounds", exempt_from_nothing)
    code, out, _ = run(capsys, "scan", "3", "30", "--json")
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert code == 0
    assert summary["edges_quarter_violations_in_scope"] == [5, 6, 7, 9, 10, 13, 14, 17, 18, 22, 25]
    checked, failures = cli._verify_bounds(30)
    assert checked == 28
    assert {"n": 10, "problem": "quarter bound failed"} in failures
    assert {"n": 10, "problem": "third bound failed"} in failures


def test_scan_jobs_deterministic(capsys):
    code, seq, _ = run(capsys, "scan", "3", "40", "--json")
    code2, par, _ = run(capsys, "scan", "3", "40", "--json", "--jobs", "2")
    assert code == code2 == 0
    assert seq == par


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and maps in
    this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_scan_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, seq, _ = run(capsys, "scan", "3", "20", "--json")
    code2, par, _ = run(capsys, "scan", "3", "20", "--json", "--jobs", "100000")
    assert code == code2 == 0 and seq == par
    assert RecordingPool.sizes == [3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
    code, _, _ = run(capsys, "scan", "3", "20", "--jobs", "100000")
    assert code == 0 and RecordingPool.sizes == [3]


def test_alpha_beta_commands(capsys):
    code, out, _ = run(capsys, "alpha", "8", "--json")
    assert code == 0 and json.loads(out)["outputs"]["value"] == 4
    code, out, _ = run(capsys, "beta", "9", "--max-edges", "7", "--json")
    outputs = json.loads(out)["outputs"]
    assert code == 0 and outputs["value"] == 6
    # levels are built under the cap tier 64, not under n = 9
    assert "tree count <= 64 " in outputs["search_space"]["filter"]


def test_fixedpoint_proved_and_refuted(capsys):
    code, out, _ = run(capsys, "fixedpoint", "13", "--json")
    assert code == 0 and json.loads(out)["outputs"]["proved"] is True
    code, out, _ = run(capsys, "fixedpoint", "12", "--json")
    assert code == 1 and json.loads(out)["outputs"]["proved"] is False
    # from n = 40 on the proof reads level 5
    code, out, _ = run(capsys, "fixedpoint", "41", "--json")
    assert code == 1 and len(json.loads(out)["outputs"]["witnesses"]) == 5


def test_idoneal_commands(capsys):
    code, out, _ = run(capsys, "idoneal", "11", "--json")
    doc = json.loads(out)
    assert doc["outputs"]["idoneal"] is False
    assert doc["outputs"]["strict_representations"] == [[1, 2, 3]]
    code, out, _ = run(capsys, "idoneal", "--scan", "100", "--json")
    free = json.loads(out)["outputs"]["representation_free"]
    assert 22 in free and 11 not in free


@pytest.mark.parametrize(
    "argv",
    [
        ("idoneal", "0"),
        ("idoneal", "--scan", "-5"),
        ("idoneal", "--scan", str(cli.IDONEAL_SCAN_MAX + 1)),
        ("idoneal", str(cli.IDONEAL_SCAN_MAX + 1)),
        ("scan", "3", "10", "--jobs", "0"),
        ("scan", "3", str(cli.SCAN_MAX + 1)),
        ("count", "--spec", "theta:1,1"),
        ("alpha", "25", "--max-vertices", "12"),
        ("beta", "25", "--max-edges", "13"),
        ("fixedpoint", "75", "--budget", "10"),
        ("fixedpoint", "12", "--budget", "10000"),
        ("verify", "bounds", "--limit", "0"),
        ("verify", "bounds", "--limit", "2"),
        ("verify", "bounds", "--limit", str(cli.SCAN_MAX + 1)),
        ("verify", "table1", "--limit", "5"),
        ("count", "-", "--spec", "theta:2,3,4"),
        ("idoneal", "11", "--scan", "100"),
        ("alpha", "5", "--max-vertices", "-4"),
        ("beta", "5", "--max-edges", "0"),
        ("fixedpoint", "5", "--budget", "-3"),
    ],
    ids=" ".join,
)
def test_bad_value_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "name, content",
    [
        ("missing.txt", None),
        ("a_directory", "dir"),
        ("latin1.txt", "p 3\n0 1\n1 2 # caf\xe9\n".encode("latin-1")),
        ("umlaut.g6", "B\xfcw\n".encode()),
    ],
    ids=["missing file", "directory", "undecodable bytes", "non-ASCII graph6"],
)
def test_count_unreadable_input_exit_2(tmp_path, capsys, name, content):
    f = tmp_path / name
    if content == "dir":
        f.mkdir()
    elif content is not None:
        f.write_bytes(content)
    code, out, err = run(capsys, "count", str(f))
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1


def test_count_long_cycle_both_methods(capsys):
    # the series rule reduces the cycle without recursion
    code, out, _ = run(capsys, "count", "--spec", "bouquet:1000", "--method", "both")
    assert code == 0 and out.strip() == "1000"


def test_count_dc_too_deep_exit_2(tmp_path, capsys, recursion_limit):
    # C_30^2 is 4-regular, so nothing reduces and the recursion runs deep
    f = tmp_path / "c30sq.txt"
    f.write_text(format_edge_list(square_of_cycle(30)))
    recursion_limit(40)
    code, out, err = run(capsys, "count", str(f), "--method", "dc")
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert "recursion too deep" in err


def test_count_dc_core_ceiling_exit_2(tmp_path, capsys, monkeypatch):
    f = tmp_path / "grid.txt"
    f.write_text(format_edge_list(grid_graph(5, 5)))
    monkeypatch.setattr(tree_count, "DC_CORE_CEILING", 100)
    code, out, err = run(capsys, "count", str(f), "--method", "both")
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert "matrix method" in err


def test_verify_table1(capsys):
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 0 and "0 failures" in out


def test_verify_lemma1(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["outputs"]["failures"] == []
    assert doc["outputs"]["checked"] > 400


def test_verify_fixedpoints(capsys):
    code, out, _ = run(capsys, "verify", "fixedpoints", "--json")
    doc = json.loads(out)["outputs"]
    assert code == 0 and doc["checked"] == 8 and doc["failures"] == []


def test_verify_bounds_counts_its_checks(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--limit", "3", "--json")
    assert code == 0 and json.loads(out)["outputs"]["checked"] == 1


def test_verify_bounds_small_range(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--limit", "300", "--json")
    assert code == 0

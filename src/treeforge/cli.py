"""Command-line interface.

Subcommands: count, construct, scan, alpha, beta, fixedpoint, idoneal,
verify. All counts are serialized as decimal strings in JSON output so
arbitrary precision survives any consumer. Exit codes: 0 success / all
checks pass, 1 check failure or refutation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal  # str(Decimal(n)) is exact past str(n)'s 4,300-digit limit

from . import __version__
from .constructions import (
    TABLE1_ROWS,
    build_variant,
    iter_variant_specs,
    parse_construction,
    tau_variant,
)
from .graph_core import GraphError
from .graphio import ParseError, format_edge_list, load_graph
from .idoneal import idoneal_numbers_up_to, strict_representations
from .minimal_builder import (
    FIXED_POINTS,
    BoundReport,
    ExceptionClass,
    Witness,
    build_witness,
    check_bounds,
)
from .search_oracle import (
    alpha_exact,
    beta_exact,
    verify_no_smaller_graph,
)
from .tree_count import tau_dc, tau_matrix

#: Largest HI that `idoneal --scan` accepts (the sieve holds one byte per
#: n, so this is a 100 MB array), and the largest n that `idoneal N`
#: accepts (listing the representations of n takes Theta(n) time).
IDONEAL_SCAN_MAX = 10**8

#: Largest HI that `scan` accepts, and the largest `verify bounds --limit`
#: (each n checked there costs what a scan row costs). Every row is built
#: before the first is printed: `scan 3 100000` took 24 s of CPU time at a
#: peak RSS of 59 MB (CPython 3.11, 2-vCPU VM, process start included), and
#: rows near 10**5 take about 0.5 ms each. `verify bounds --limit 100000`
#: took 23-24 s at 19 MB.
SCAN_MAX = 10**5

#: Range of `verify bounds` when --limit is not given.
VERIFY_BOUNDS_LIMIT = 10_000


def _report(command: str, inputs: dict, outputs: dict, started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        "version": __version__,
    }


def _emit(report: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=False))
    else:
        print(human)


def _digits(count: int) -> str:
    return str(Decimal(count))


def _witness_dict(w: Witness) -> dict:
    return {
        "tau": _digits(w.tau),
        "vertices": w.vertices,
        "edges": w.edges,
        "strategy": w.strategy.value,
        "edge_list": [[u, v, m] for u, v, m in w.graph.edges],
    }


# ---------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.spec and args.file is not None:
        print("count takes a FILE or --spec, not both", file=sys.stderr)
        return 2
    closed_form = None
    if args.spec:
        g, closed_form = parse_construction(args.spec)
        source = {"spec": args.spec}
    else:
        path = "-" if args.file is None else args.file
        try:
            if path == "-":
                text = sys.stdin.read()
            else:
                with open(path) as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        g = load_graph(text)
        source = {"file": path}
    values = {}
    if args.method in ("matrix", "both"):
        values["matrix"] = tau_matrix(g)
    if args.method in ("dc", "both"):
        values["dc"] = tau_dc(g)
    if args.method == "both" and values["matrix"] != values["dc"]:
        print(
            f"method disagreement: matrix={_digits(values['matrix'])} dc={_digits(values['dc'])}",
            file=sys.stderr,
        )
        return 1
    tau = next(iter(values.values()))
    if closed_form is not None and tau != closed_form:
        print(
            f"closed-form disagreement: {args.method}={_digits(tau)} closed_form={_digits(closed_form)}",
            file=sys.stderr,
        )
        return 1
    if tau == 0:
        print("warning: graph is disconnected, count is 0", file=sys.stderr)
    outputs = {"tau": _digits(tau), "method": args.method}
    _emit(_report("count", source, outputs, started), args.json, outputs["tau"])
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    w = build_witness(args.n)
    report = check_bounds(args.n, w)
    outputs = {
        "witness": _witness_dict(w),
        "bounds": _bound_flags(report),
    }
    human = (
        f"n={args.n}: {w.edges} edges, {w.vertices} vertices via {w.strategy.value}"
        f" (exception class: {report.exception_class.value})\n"
        + format_edge_list(w.graph).rstrip()
    )
    _emit(_report("construct", {"n": args.n}, outputs, started), args.json, human)
    return 0


def _bound_flags(r: BoundReport) -> dict:
    """The bound checks of a witness report and its exception class."""
    return {
        "edges_le_third": r.bound_third,
        "edges_le_quarter": r.bound_quarter,
        "vertices_le_third": r.vertex_bound_third,
        "vertices_le_quarter": r.vertex_bound_quarter,
        "exception_class": r.exception_class.value,
    }


def _scan_row(n: int) -> dict:
    w = build_witness(n)
    return {
        "n": n,
        "tau": _digits(w.tau),
        "edges": w.edges,
        "vertices": w.vertices,
        "strategy": w.strategy.value,
        **_bound_flags(check_bounds(n, w)),
    }


def cmd_scan(args: argparse.Namespace) -> int:
    if args.lo > args.hi or args.lo < 3:
        print("scan needs 3 <= LO <= HI", file=sys.stderr)
        return 2
    if args.hi > SCAN_MAX:
        print(f"scan needs HI <= {SCAN_MAX}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("scan needs --jobs >= 1", file=sys.stderr)
        return 2
    # The pool forks all its workers at once, so ask for no more than there
    # are CPUs to run them.
    jobs = min(args.jobs, os.cpu_count() or 1)
    ns = range(args.lo, args.hi + 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_row, ns, chunksize=64))
    else:
        rows = [_scan_row(n) for n in ns]
    third_violations = [r["n"] for r in rows if not r["edges_le_third"]]
    quarter_violations = [
        r["n"]
        for r in rows
        if r["exception_class"] == ExceptionClass.NONE.value and not r["edges_le_quarter"]
    ]
    summary = {
        "edges_third_violations": third_violations,
        "edges_quarter_violations_in_scope": quarter_violations,
    }
    if args.json:
        for r in rows:
            print(json.dumps(r))
        print(json.dumps({"summary": summary}))
    else:
        cols = list(rows[0].keys())
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r[c]) for c in cols))
        print(f"# third-bound violations: {third_violations}")
        print(f"# quarter-bound violations (in scope): {quarter_violations}")
    return 0


#: command -> (search, the argument that bounds it)
_SEARCHES = {"alpha": (alpha_exact, "max_vertices"), "beta": (beta_exact, "max_edges")}


def cmd_search(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    search, budget_name = _SEARCHES[args.command]
    budget = getattr(args, budget_name)
    res = search(args.n, budget)
    outputs = {
        "value": res.value,
        "witness": _witness_dict(res.witness) if res.witness else None,
        "search_space": res.search_space,
    }
    human = (
        f"{args.command}({args.n}) = {res.value}"
        if res.value is not None
        else f"{args.command}({args.n}) > {budget} (search space exhausted)"
    )
    inputs = {"n": args.n, budget_name: budget}
    _emit(_report(args.command, inputs, outputs, started), args.json, human)
    return 0


def cmd_fixedpoint(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    budget = args.budget if args.budget is not None else args.n
    report = verify_no_smaller_graph(args.n, budget)
    outputs = report.to_dict()
    verdict = "proved" if report.proved else "refuted"
    human = (
        f"no simple graph on fewer than {budget} vertices has exactly {args.n} "
        f"spanning trees: {verdict}"
    )
    if not report.proved and report.witnesses:
        g = report.witnesses[0]
        human += f"\ncounterexample on {g.vertex_count} vertices: {list(g.edges)}"
    _emit(_report("fixedpoint", {"n": args.n, "budget": budget}, outputs, started), args.json, human)
    return 0 if report.proved else 1


def cmd_idoneal(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.scan is not None and args.n is not None:
        print("idoneal takes <n> or --scan <hi>, not both", file=sys.stderr)
        return 2
    if args.scan is not None:
        if not 0 <= args.scan <= IDONEAL_SCAN_MAX:
            print(f"idoneal --scan needs 0 <= HI <= {IDONEAL_SCAN_MAX}", file=sys.stderr)
            return 2
        values = idoneal_numbers_up_to(args.scan)
        outputs = {"limit": args.scan, "representation_free": values}
        human = " ".join(str(v) for v in values)
        _emit(_report("idoneal-scan", {"limit": args.scan}, outputs, started), args.json, human)
        return 0
    if args.n is None:
        print("idoneal needs <n> or --scan <hi>", file=sys.stderr)
        return 2
    if not 1 <= args.n <= IDONEAL_SCAN_MAX:
        print(f"idoneal needs 1 <= n <= {IDONEAL_SCAN_MAX}", file=sys.stderr)
        return 2
    reps = strict_representations(args.n)
    outputs = {
        "n": args.n,
        "idoneal": not reps,
        "strict_representations": [list(r) for r in reps],
    }
    human = (
        f"{args.n} is idoneal (no representation ab+ac+bc with 0<a<b<c)"
        if not reps
        else f"{args.n} = " + "; ".join(f"{a}*{b}+{a}*{c}+{b}*{c}" for a, b, c in reps)
    )
    _emit(_report("idoneal", {"n": args.n}, outputs, started), args.json, human)
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _verify_variants(rows) -> tuple[int, list[dict]]:
    """Each variant's closed form must equal the count of its built graph,
    and the expected value where its row gives one (None: no value)."""
    checked = 0
    failures = []
    for spec, expected in rows:
        checked += 1
        closed = tau_variant(spec)
        built = tau_matrix(build_variant(spec))
        if closed != built or expected not in (None, closed):
            failure = {"spec": repr(spec)}
            if expected is not None:
                failure["expected"] = expected
            failures.append({**failure, "closed_form": _digits(closed), "built": _digits(built)})
    return checked, failures


def _verify_bounds(limit: int) -> tuple[int, list[dict]]:
    """Exceptional n must break the edge-and-vertex bound pair (for n = 3
    only the vertex half fails: 3 <= (3+7)/3 already holds), every other n
    must satisfy both, and the quarter bounds must hold where
    `check_bounds` classes n as exempt from neither. The quarter scope
    leaves out every exceptional n, the fixed points 10 and 22 among them,
    whose minimum is n itself."""
    failures = []
    for n in range(3, limit + 1):
        w = build_witness(n)
        r = check_bounds(n, w)
        if w.tau != n:
            failures.append({"n": n, "problem": "certification", "tau": _digits(w.tau)})
            continue
        if r.exception_class is ExceptionClass.BOTH:
            if r.bound_third and r.vertex_bound_third:
                failures.append({"n": n, "problem": "expected a bound violation"})
        else:
            if not r.bound_third or not r.vertex_bound_third:
                failures.append({"n": n, "problem": "third bound failed"})
            if r.exception_class is ExceptionClass.NONE:
                if not r.bound_quarter or not r.vertex_bound_quarter:
                    failures.append({"n": n, "problem": "quarter bound failed"})
    return limit - 2, failures


def _verify_fixedpoints() -> tuple[int, list[dict]]:
    failures = []
    for n in sorted(FIXED_POINTS):
        report = verify_no_smaller_graph(n, n)
        if not report.proved:
            failures.append({"n": n, "problem": "not proved", "reason": report.stop_reason})
    return len(FIXED_POINTS), failures


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.limit is not None and args.suite != "bounds":
        print(f"--limit applies to the bounds suite only, not {args.suite}", file=sys.stderr)
        return 2
    if args.suite == "table1":
        checked, failures = _verify_variants(TABLE1_ROWS)
    elif args.suite == "lemma1":
        checked, failures = _verify_variants((s, None) for s in iter_variant_specs(12))
    elif args.suite == "bounds":
        limit = VERIFY_BOUNDS_LIMIT if args.limit is None else args.limit
        if not 3 <= limit <= SCAN_MAX:
            print(f"verify bounds needs 3 <= --limit <= {SCAN_MAX}", file=sys.stderr)
            return 2
        checked, failures = _verify_bounds(limit)
    elif args.suite == "fixedpoints":
        checked, failures = _verify_fixedpoints()
    else:  # unreachable thanks to argparse choices
        return 2
    outputs = {"suite": args.suite, "checked": checked, "failures": failures}
    ok = not failures
    human = f"verify {args.suite}: {checked} checks, {len(failures)} failures"
    for f in failures:
        human += "\n  " + json.dumps(f)
    _emit(_report("verify", {"suite": args.suite}, outputs, started), args.json, human)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treeforge",
        description="exact spanning-tree counts and minimal witness graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count spanning trees of a graph", parents=[common])
    c.add_argument("file", nargs="?", default=None, help="edge-list or graph6 file; - or none for stdin")
    c.add_argument("--spec", help="count a built family instead, e.g. theta:2,3,4")
    c.add_argument("--method", choices=["matrix", "dc", "both"], default="matrix")
    c.set_defaults(func=cmd_count)

    c = sub.add_parser("construct", help="build a certified witness for n", parents=[common])
    c.add_argument("n", type=int)
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("scan", help="witness + bound table over a range", parents=[common])
    c.add_argument("lo", type=int)
    c.add_argument("hi", type=int)
    c.add_argument(
        "--jobs", type=int, default=1, help="worker processes (at most the CPU count)"
    )
    c.set_defaults(func=cmd_scan)

    c = sub.add_parser("alpha", help="exact minimum vertex count by search", parents=[common])
    c.add_argument("n", type=int)
    c.add_argument("--max-vertices", type=int, default=8)
    c.set_defaults(func=cmd_search)

    c = sub.add_parser("beta", help="exact minimum edge count by search", parents=[common])
    c.add_argument("n", type=int)
    c.add_argument("--max-edges", type=int, default=9)
    c.set_defaults(func=cmd_search)

    c = sub.add_parser("fixedpoint", help="prove no smaller graph reaches n", parents=[common])
    c.add_argument("n", type=int)
    c.add_argument("--budget", type=int, default=None, help="vertex budget (default n)")
    c.set_defaults(func=cmd_fixedpoint)

    c = sub.add_parser("idoneal", help="representability as ab+ac+bc", parents=[common])
    c.add_argument("n", type=int, nargs="?", default=None)
    c.add_argument("--scan", type=int, default=None, help="list representation-free n <= HI")
    c.set_defaults(func=cmd_idoneal)

    c = sub.add_parser("verify", help="run a named acceptance suite", parents=[common])
    c.add_argument("suite", choices=["table1", "lemma1", "bounds", "fixedpoints"])
    c.add_argument("--limit", type=int, help=f"bounds suite only: its range (default {VERIFY_BOUNDS_LIMIT})")
    c.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

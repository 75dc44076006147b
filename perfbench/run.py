"""treeforge benchmark: run one workload for a seed and print its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is imported from src/ and
byte-compiled first. Each pass of the workload runs in a fresh,
single-threaded worker process (worker.py), one at a time, so every pass
starts with empty caches; passes repeat while another one fits in
--seconds. Answers are checked by check.py outside the timed region.

--trace 0 reports the end-to-end metrics. Every pass asks the same
queries; each query's latency is its median over the passes, solve_s
is the sum of those, and peak memory and set-up time are medians over
the passes. Times are scaled to a reference machine speed (worker.py).
--trace 1 alternates plain and traced passes and reports the per-layer
metrics of the traced ones, plus trace.overhead_ratio.

Lines before the last describe the run for a reader; the last line is
the JSON result (with --workload all, each workload's result line comes
after its block and the last line combines them, metric names prefixed
by the workload). Each run is also recorded under perfbench/runs/.
--smoke runs tiny inputs, for the self-tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 165.0  # every run ends well within 180 s
TAIL_BEYOND = 10


def _worker(cfg: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("TREEFORGE_MEMO_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    queries beyond it; the maximum when a pass has too few queries."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def run_passes(args, workload: str, runs_dir: str) -> list[dict]:
    modes = ["plain", "traced"] if args.trace else ["plain"]
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        mode = modes[len(passes) % len(modes)]
        cfg = {
            "root": ROOT,
            "workload": workload,
            "seed": args.seed,
            "smoke": args.smoke,
            "traced": mode == "traced",
            "spans_path": os.path.join(runs_dir, f"spans-{workload}.json"),
        }
        began = time.monotonic()
        result = _worker(cfg, HARD_LIMIT_S - (began - start))
        result["mode"] = mode
        result["wall_s"] = time.monotonic() - began
        passes.append(result)
        elapsed = time.monotonic() - start
        next_mode = modes[len(passes) % len(modes)]
        same = [p["wall_s"] for p in passes if p["mode"] == next_mode] or [p["wall_s"] for p in passes]
        estimate = max(same)
        if elapsed + estimate > HARD_LIMIT_S - 5:
            break
        if elapsed + estimate > args.seconds and len(passes) >= len(modes):
            break
    return passes


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(args, workload: str, declared: list[dict]) -> dict | None:
    """Run, check and report one workload; returns the JSON result, or
    None when a worker failed."""
    from workloads import generate

    runs_dir = os.path.join(HERE, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    try:
        passes = run_passes(args, workload, runs_dir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return None

    # the checker imports numpy; load it only now, outside every timed pass
    from check import Checker

    queries = generate(workload, args.seed, args.smoke)
    checker = Checker()
    attempted = failed = 0
    reasons: list[str] = []
    for p in passes:
        for q, a in zip(queries, p["answers"], strict=True):
            attempted += 1
            why = checker.check(q, a)
            if why is not None:
                failed += 1
                if len(reasons) < 10:
                    reasons.append(f"{q}: {why}"[:300])

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    med = statistics.median
    # every pass asks the same queries, so each query's latency is taken as
    # its median over the passes
    latencies = [med(q) for q in zip(*(p["latencies_s"] for p in plain))]
    tail, tail_pct = _tail(latencies)
    e2e = {
        "solve_s": sum(latencies),
        "query_p50_ms": med(latencies) * 1e3,
        "query_tail_ms": tail * 1e3,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "setup_s": med(p["setup_s"] for p in plain),
    }
    layers: dict = {}
    absent: dict = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = med(p["layers"][name] for p in traced)
        layers["trace.overhead_ratio"] = med(p["solve_s"] for p in traced) / med(p["solve_s"] for p in plain)
        absent = traced[0]["absent"]
    values = layers if args.trace else e2e
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}

    per_pass = len(queries)
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "queries_per_pass": per_pass,
        "tail_percentile": tail_pct,
        "pass_solve_s": [p["solve_s"] for p in plain],
        "pass_wall_solve_s": [p["wall_solve_s"] for p in plain],
        "pass_speed": [p["speed"] for p in plain],
        "end_to_end": e2e,
        "failed_ratio": failed / attempted,
        "failures": reasons,
        "layers": layers,
        "absent_layers": absent,
    }
    with open(os.path.join(runs_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(
        f"# {workload} seed={args.seed} commit={record['commit'][:12]} python={record['python']} "
        f"nproc={record['nproc']} passes={len(plain)} plain + {len(traced)} traced, {per_pass} queries per pass"
    )
    if args.trace:
        for k, why in absent.items():
            print(f"# {k}: reported as 0, {why}")
    else:
        print(f"# per-query latency is the median over {len(plain)} passes; query_tail_ms is p{tail_pct:.1f} of {per_pass} queries")
        print(
            f"# times at reference speed; machine speed {med(p['speed'] for p in plain):.3f} of reference, "
            f"unscaled solve time {med(p['wall_solve_s'] for p in plain):.4g} s (median over passes)"
        )
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} answers failed the check)")
    for r in reasons:
        print(f"# failed: {r}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src", "treeforge")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"error: no treeforge sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(src, quiet=1):
        print("error: treeforge sources do not compile", file=sys.stderr)
        return 2
    # BENCHMARK.json names every metric and its unit
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    results = {}
    for name in names:
        res = run_workload(args, name, declared)
        if res is None:
            return 1
        results[name] = res
        if len(names) > 1:
            print(json.dumps(res))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

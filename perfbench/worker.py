"""One pass of one workload, in a fresh single-threaded process.

run.py starts this file once per pass, one process at a time:

    python3 worker.py '{"root": ..., "workload": ..., "seed": ..., "smoke": ..., "traced": ...}'

It imports treeforge from <root>/src, generates the pass's inputs from the
seed, runs every query through the public library call behind the
matching CLI command, and prints one JSON object: timings (scaled to a
reference machine speed measured by SpeedProbe while the queries run),
the answers (for run.py's checker), peak memory and, in a traced pass,
the per-layer figures. Caches start empty because the process is new.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


#: Seconds one call of _kernel takes on the reference machine state; it
#: defines the reported seconds.
REFERENCE_KERNEL_S = 1e-4
#: Wall-clock interval between two speed samples during the queries.
PROBE_INTERVAL_S = 0.005


def _kernel() -> list:
    """Fixed pure-Python work like the program's own (sparse dict rows,
    integer arithmetic, tuples)."""
    rows = {i: {i: 3, (i + 1) % 40: -1, (i + 7) % 40: -1} for i in range(40)}
    acc = 1
    for i in range(40):
        for j, v in list(rows[i].items()):
            acc = (acc * (v + 5) + j) % 1000000007
            rows[j][i] = rows[j].get(i, 0) + v
    return sorted((v, k) for k, v in rows[0].items())


class SpeedProbe:
    """Follows the speed of a shared machine, which drifts by tens of
    percent within a minute, by timing _kernel on a timer signal while the
    queries run. Time spent in the probe is kept apart so it can be taken
    out of the query latencies."""

    def __init__(self) -> None:
        self.calls = 0
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _kernel()
        self.spent_s += time.perf_counter() - t
        self.calls += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Machine speed relative to the reference (below 1 is slower)."""
        return self.calls * REFERENCE_KERNEL_S / self.spent_s if self.calls else 1.0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since it started the worker.

    ru_maxrss also counts the memory of the parent that forked it before
    exec, so the high-water mark of the current image comes from
    /proc/self/status where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _graph(g) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}


class Pass:
    def __init__(self, cfg: dict):
        src = os.path.join(cfg["root"], "src")
        sys.path.insert(0, src)
        import treeforge
        from treeforge import graphio, idoneal, minimal_builder, search_oracle, tree_count

        if not os.path.abspath(treeforge.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"treeforge was imported from {treeforge.__file__}, not from {src}")
        import workloads

        self.tf = treeforge
        self.graphio, self.idoneal, self.mb = graphio, idoneal, minimal_builder
        self.so, self.tc = search_oracle, tree_count
        self.queries = workloads.generate(cfg["workload"], cfg["seed"], cfg["smoke"])
        self.texts = [
            workloads.edge_list_text(q) if q["op"] == "count" else None for q in self.queries
        ]

    # every call goes through the module attribute, where a traced pass
    # has put its wrapper
    def run(self, q: dict, text: str | None):
        op = q["op"]
        if op == "witness":
            w = self.mb.build_witness(q["n"])
            return w, self.mb.check_bounds(q["n"], w)
        if op == "sieve":
            return self.idoneal.idoneal_numbers_up_to(q["limit"])
        if op == "alpha":
            return self.so.alpha_exact(q["n"], q["max_vertices"])
        if op == "beta":
            return self.so.beta_exact(q["n"], q["max_edges"])
        if op == "fixedpoint":
            return self.so.verify_no_smaller_graph(q["n"], q["budget"])
        if op == "count":
            g = self.graphio.load_graph(text)
            tau = self.tc.tau_matrix(g)
            return tau, self.tc.tau_dc(g) if q["both"] else None
        raise ValueError(f"unknown op {op!r}")

    def answer(self, q: dict, r) -> dict:
        """Serialise a result for the checker (outside the timed region)."""
        if isinstance(r, Exception):
            return {"error": f"{type(r).__name__}: {r}"}
        op = q["op"]
        if op == "witness":
            w, b = r
            return {
                "tau": w.tau,
                "vertices": w.vertices,
                "edges": w.edges,
                "strategy": w.strategy.value,
                "graph": _graph(w.graph),
                "bounds": {
                    "bound_third": b.bound_third,
                    "bound_quarter": b.bound_quarter,
                    "vertex_bound_third": b.vertex_bound_third,
                    "vertex_bound_quarter": b.vertex_bound_quarter,
                },
            }
        if op == "sieve":
            return {"values": r}
        if op in ("alpha", "beta"):
            out = {
                "value": r.value,
                "graph": _graph(r.witness.graph) if r.witness else None,
                "classes_per_level": r.search_space["classes_per_level"],
            }
            if op == "alpha":
                # cross-check: the exhaustive value never exceeds the constructive one
                out["witness_vertices"] = self.mb.build_witness(q["n"]).vertices
            return out
        if op == "fixedpoint":
            audits = [s for level in r.levels for s in level["skeletons"]]
            return {
                "proved": r.proved,
                "witnesses": [_graph(g) for g in r.witnesses],
                "skeletons": len(audits),
                "pruned": sum(a["status"] != "swept" for a in audits),
                "assignments": sum(a["assignments_tried"] for a in audits),
                "sweep_hits": sum(len(a["witnesses"]) for a in audits),
            }
        tau, dc = r
        return {"tau": tau, "dc": dc}


def layer_metrics(tracer, queries: list[dict], answers: list[dict], memo_cap: int) -> tuple[dict, dict]:
    """Per-layer figures of a traced pass, and why any ratio is undefined."""
    spans = tracer.summary()
    absent: dict[str, str] = {}

    def row(name: str) -> dict:
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def ratio(metric: str, num: float, den: float, why: str) -> float:
        if den:
            return num / den
        absent[metric] = why
        return 0.0

    tm = [s for s in tracer.spans if s[0] == "tree_count.tau_matrix"]
    canon = [s for s in tracer.spans if s[0] == "graph_core.canonical_form"]
    under_dc = [s for s in tracer.under({"tree_count.tau_dc"}) if s[0] == "graph_core.canonical_form"]
    if len(under_dc) >= memo_cap:
        raise RuntimeError(f"{len(under_dc)} memo lookups reach the memo cap {memo_cap}; hit count would be inexact")
    under_level = [s[0] for s in tracer.under({"search_oracle.alpha_exact", "search_oracle.beta_exact"})]

    built: dict[tuple, int] = {}
    for q, a in zip(queries, answers):
        if q["op"] in ("alpha", "beta") and "classes_per_level" in a:
            cap = None if q["op"] == "alpha" else q["max_edges"]
            for k, c in a["classes_per_level"].items():
                built[(q["tier"], cap, int(k))] = c
    candidates = sum(
        built[(t, cap, k - 1)] * ((1 << (k - 1)) - 1) for (t, cap, k) in built if k >= 2
    )
    classes = sum(c for (_, _, k), c in built.items() if k >= 2)
    fp = [a for q, a in zip(queries, answers) if q["op"] == "fixedpoint" and "error" not in a]
    assignments = sum(a["assignments"] for a in fp)
    skeletons = sum(a["skeletons"] for a in fp)
    level_self = row("search_oracle.alpha_exact")["self_s"] + row("search_oracle.beta_exact")["self_s"]

    m = {
        "tree_count.tau_matrix.calls": len(tm),
        "tree_count.tau_matrix.s": row("tree_count.tau_matrix")["self_s"],
        "tree_count.tau_matrix.order_sum": sum(s[4][0] for s in tm if s[4]),
        "tree_count.tau_matrix.result_bits": sum(s[4][1] for s in tm if s[4]),
        "tree_count.tau_dc.calls": row("tree_count.tau_dc")["calls"],
        "tree_count.tau_dc.s": row("tree_count.tau_dc")["self_s"],
        "tree_count.dc_memo.lookups": len(under_dc),
        "tree_count.dc_memo.hit_ratio": ratio(
            "tree_count.dc_memo.hit_ratio",
            len(under_dc) - len({s[4][1] for s in under_dc}),
            len(under_dc),
            "no tau_dc call in this workload",
        ),
        "graph_core.canonical_form.calls": len(canon),
        "graph_core.canonical_form.s": row("graph_core.canonical_form")["self_s"],
        "graph_core.canonical_form.vertex_sum": sum(s[4][0] for s in canon if s[4]),
        "graph_core.biconnected_components.calls": row("graph_core.biconnected_components")["calls"],
        "graph_core.biconnected_components.s": row("graph_core.biconnected_components")["self_s"],
        "search_oracle.level.candidates": candidates,
        "search_oracle.level.classes": classes,
        "search_oracle.level.useful_ratio": ratio(
            "search_oracle.level.useful_ratio", classes, candidates, "no level is built in this workload"
        ),
        "search_oracle.level.tau_matrix_calls": under_level.count("tree_count.tau_matrix"),
        "search_oracle.level.canonical_calls": under_level.count("graph_core.canonical_form"),
        "search_oracle.level.self_s": level_self,
        "search_oracle.enumerate_skeletons.calls": row("search_oracle.enumerate_skeletons")["calls"],
        "search_oracle.enumerate_skeletons.s": row("search_oracle.enumerate_skeletons")["self_s"],
        "search_oracle.enumerate_skeletons.found": sum(
            s[4] for s in tracer.spans if s[0] == "search_oracle.enumerate_skeletons" and s[4] is not None
        ),
        "search_oracle.sweep.s": row("search_oracle.verify_no_smaller_graph")["self_s"],
        "search_oracle.sweep.assignments": assignments,
        "search_oracle.sweep.hit_ratio": ratio(
            "search_oracle.sweep.hit_ratio",
            sum(a["sweep_hits"] for a in fp),
            assignments,
            "no subdivision sweep in this workload",
        ),
        "search_oracle.skeletons.pruned_ratio": ratio(
            "search_oracle.skeletons.pruned_ratio",
            sum(a["pruned"] for a in fp),
            skeletons,
            "no skeleton is audited in this workload",
        ),
        "idoneal.theta_representations.calls": row("idoneal.theta_representations")["calls"],
        "idoneal.theta_representations.s": row("idoneal.theta_representations")["self_s"],
        "idoneal.sieve.s": row("idoneal.sieve")["self_s"],
        "idoneal.sieve.limit": sum(s[4] for s in tracer.spans if s[0] == "idoneal.sieve" and s[4] is not None),
        "constructions.build.calls": row("constructions.build")["calls"],
        "constructions.build.s": row("constructions.build")["self_s"],
        "constructions.build.edges": sum(
            s[4] for s in tracer.spans if s[0] == "constructions.build" and s[4] is not None
        ),
        "minimal_builder.build_witness.self_s": row("minimal_builder.build_witness")["self_s"],
        "minimal_builder.check_bounds.s": row("minimal_builder.check_bounds")["self_s"],
        "graphio.load_graph.calls": row("graphio.load_graph")["calls"],
        "graphio.load_graph.s": row("graphio.load_graph")["self_s"],
        "graphio.load_graph.bytes": sum(
            s[4] for s in tracer.spans if s[0] == "graphio.load_graph" and s[4] is not None
        ),
    }
    return m, absent


def main() -> None:
    cfg = json.loads(sys.argv[1])
    p = Pass(cfg)
    tracer = None
    if cfg["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(p.tf)
    latencies = []
    results = []
    probe = SpeedProbe()
    t_first = time.perf_counter()
    probe.start()
    for q, text in zip(p.queries, p.texts):
        probe_before = probe.spent_s
        s = time.perf_counter()
        try:
            r = p.run(q, text)
        except Exception as exc:  # a failed query is counted, not fatal
            r = exc
        latencies.append(time.perf_counter() - s - (probe.spent_s - probe_before))
        results.append(r)
    probe.stop()
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    # times are reported at reference machine speed
    speed = probe.speed()
    answers = [p.answer(q, r) for q, r in zip(p.queries, results)]
    out = {
        "setup_s": (t_first - T_START) * speed,
        "solve_s": sum(latencies) * speed,
        "latencies_s": [x * speed for x in latencies],
        "speed": speed,
        "wall_solve_s": sum(latencies),
        "peak_rss_mb": peak_rss_mb,
        "answers": answers,
    }
    if tracer is not None:
        layers, out["absent"] = layer_metrics(tracer, p.queries, answers, p.tc.DEFAULT_MEMO_CAP)
        out["layers"] = {
            name: v * speed if name.endswith((".s", ".self_s")) else v for name, v in layers.items()
        }
        if cfg.get("spans_path"):
            with open(cfg["spans_path"], "w") as fh:
                json.dump(tracer.compact(), fh, separators=(",", ":"))
    json.dump(out, sys.stdout, separators=(",", ":"))


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They show that inputs are a function of the seed, that the checker's
determinant is right and rejects corrupted answers, that a smoke run of
every workload passes with the metrics BENCHMARK.json declares (and the
layer separation holds in traced runs), and that the benchmark fails
when the program's sources are missing. Temporary files go under
perfbench/runs/.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import PRIMES, Checker, tree_count_mod  # noqa: E402
from run import _worker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _run(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            for smoke in (False, True):
                self.assertEqual(generate(w, 7, smoke), generate(w, 7, smoke), w)

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS:
            self.assertNotEqual(generate(w, 7), generate(w, 8), w)

    def test_declared_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))


class Determinant(unittest.TestCase):
    def test_known_counts(self):
        k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        cycle = [(i, (i + 1) % 500) for i in range(500)]
        theta = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 1)]  # paths 2, 3, 1: 2*3 + 2 + 3
        grid = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]  # 2x3 ladder
        for p in PRIMES:
            self.assertEqual(tree_count_mod(6, k6, p), 6**4)
            self.assertEqual(tree_count_mod(500, cycle, p), 500)
            self.assertEqual(tree_count_mod(5, theta, p), 11)
            self.assertEqual(tree_count_mod(6, grid, p), 15)
            self.assertEqual(tree_count_mod(3, [(0, 1, 2), (1, 2, 3)], p), 6)
            self.assertEqual(tree_count_mod(4, [(0, 1), (2, 3)], p), 0)

    def test_large_count_is_reduced(self):
        # K_12 has 12**10 trees, more than either prime
        k12 = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for p in PRIMES:
            self.assertEqual(tree_count_mod(12, k12, p), pow(12, 10, p))


class CheckerRejects(unittest.TestCase):
    """Each workload's smoke answers pass, and a corrupted one fails."""

    def answers(self, workload: str):
        cfg = {"root": ROOT, "workload": workload, "seed": 3, "smoke": True, "traced": False}
        out = _worker(cfg, 120)
        return generate(workload, 3, True), out["answers"]

    def assert_rejects(self, workload: str, corrupt) -> None:
        queries, answers = self.answers(workload)
        checker = Checker()
        for q, a in zip(queries, answers):
            self.assertIsNone(checker.check(q, a), q)
        hit = 0
        for q, a in zip(queries, answers):
            bad = copy.deepcopy(a)
            if corrupt(q, bad):
                hit += 1
                self.assertIsNotNone(Checker().check(q, bad), q)
        self.assertGreater(hit, 0)

    def test_witness_scan(self):
        def corrupt(q, a):
            if q["op"] == "witness":
                a["graph"]["edges"].pop()
                return True
            a["values"] = a["values"][:-1]
            return True

        self.assert_rejects("witness_scan", corrupt)

    def test_exhaustive_search(self):
        def corrupt(q, a):
            if a["value"] is None:
                return False
            a["value"] += 1
            return True

        self.assert_rejects("exhaustive_search", corrupt)

    def test_fixedpoint_proof(self):
        def corrupt(q, a):
            a["proved"] = not a["proved"]
            return True

        self.assert_rejects("fixedpoint_proof", corrupt)

    def test_count_exact(self):
        def corrupt(q, a):
            a["tau"] += 1
            if a["dc"] is not None:
                a["dc"] += 1
            return True

        self.assert_rejects("count_exact", corrupt)

    def test_exception_fails(self):
        self.assertIsNotNone(Checker().check({"op": "count"}, {"error": "ValueError: boom"}))


class Smoke(unittest.TestCase):
    def run_json(self, workload: str, trace: int) -> dict:
        proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_end_to_end(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for w in WORKLOADS:
            res = self.run_json(w, 0)
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0)
            self.assertEqual(set(res["metrics"]), names)
            for m in res["metrics"].values():
                self.assertGreater(m["value"], 0)

    def test_traced_layers_are_separated(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        for w in WORKLOADS:
            res = self.run_json(w, 1)
            self.assertTrue(res["correct"], w)
            self.assertEqual(set(res["metrics"]), names)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            if w == "witness_scan":
                self.assertEqual(m["graph_core.canonical_form.calls"], 0)
            if w == "count_exact":
                self.assertGreater(m["tree_count.tau_dc.calls"], 0)
                self.assertGreater(m["graphio.load_graph.calls"], 0)
            else:
                self.assertEqual(m["tree_count.tau_dc.calls"], 0)

    def test_fails_without_program(self):
        bare = os.path.join(HERE, "runs", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("runs", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _run("--workload", "witness_scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

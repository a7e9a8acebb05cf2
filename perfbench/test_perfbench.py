#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The fast tests check BENCHMARK.json's format rules and its round trip,
the failure accounting and the A/B verdicts. `TinyRuns` builds the
benchmark and runs every workload at tiny size in both modes; it checks
the output checks pass, traced and plain runs agree, and the printed
metrics are exactly the ones BENCHMARK.json lists. The Rust side has its
own tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.text = (run.ROOT / "BENCHMARK.json").read_text()
        self.spec = json.loads(self.text)

    def test_round_trips(self):
        self.assertEqual(json.loads(json.dumps(self.spec)), self.spec)
        self.assertEqual(json.dumps(self.spec, indent=2) + "\n", self.text)

    def test_keeps_its_format_rules(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)
        names = []
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertEqual(names, list(run.WORKLOADS))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))


def rep(traced=False, ops=1, failed=0, digest="0x1", counts=None):
    return {"traced": traced, "ops": ops, "failed_ops": failed, "failures": [],
            "identity": {"final_digest": digest}, "counts": counts or {"n": 1.0}}


class Accounting(unittest.TestCase):
    def test_clean_runs_fail_nothing(self):
        self.assertEqual(run.audit([rep(), rep(), rep(traced=True, counts={"n": 2.0})]),
                         (3, 0, []))

    def test_a_diverging_digest_fails_that_run(self):
        attempted, failed, problems = run.audit([rep(ops=4), rep(ops=4, digest="0x2")])
        self.assertEqual((attempted, failed), (8, 4))
        self.assertIn("final_digest", problems[0])

    def test_diverging_counts_fail_that_run(self):
        _, failed, _ = run.audit([rep(), rep(counts={"n": 3.0})])
        self.assertEqual(failed, 1)

    def test_a_crashed_repetition_is_a_failed_operation(self):
        crashed = run.run_rep(HERE / "no-such-binary", "dnn_train", 1, False, "tiny", HERE)
        self.assertTrue(crashed["crashed"])
        attempted, failed, problems = run.audit([rep(), crashed])
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("crashed", problems[0])
        self.assertEqual(run.end_to_end([])["run_s"], 0.0)


class Verdicts(unittest.TestCase):
    A = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_same_samples_agree(self):
        self.assertEqual(compare.verdict(self.A, self.A, "lower", 0.1), "agree")

    def test_a_consistent_win_is_better(self):
        b = [x * 0.8 for x in self.A]
        self.assertEqual(compare.verdict(self.A, b, "lower", 0.1), "better")
        self.assertEqual(compare.verdict(b, self.A, "higher", 0.1), "better")

    def test_a_loss_beyond_the_bound_is_worse(self):
        b = [x * 1.3 for x in self.A]
        self.assertEqual(compare.verdict(self.A, b, "lower", 0.1), "worse")

    def test_noise_wider_than_the_bound_is_unresolved(self):
        noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
        self.assertEqual(compare.verdict(self.A, noisy, "lower", 0.1), "unresolved")


class TinyRuns(unittest.TestCase):
    """Builds the benchmark and runs each workload at tiny size."""

    def run_bench(self, workload, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
        out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr

    def test_every_workload_passes_its_checks_in_both_modes(self):
        spec = run.load_spec()
        for workload in run.WORKLOADS:
            for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result, log = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"], log)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
                    for m in listed:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


if __name__ == "__main__":
    unittest.main()

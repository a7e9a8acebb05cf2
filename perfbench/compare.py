#!/usr/bin/env python3
"""A/A and A/B comparison of two builds with the OASIS benchmark.

    python3 perfbench/compare.py --a <checkout> [--b <checkout>]
        [--workloads dnn_train,graph_faults] [--json <file>]

Each side is a source tree holding BENCHMARK.json and perfbench/ (for
example `git archive <rev> | tar -x -C <dir>`). Without --b both sides are
the same tree: an A/A run, which measures the noise floor. Each side builds
into its own <side>/.bench_build.

Runs last side A's run_seconds. They are interleaved in 10 pairs, one
seed per pair (seeds 1000-1009), and alternate which side goes first.
For each workload and end-to-end metric the report gives each side's
median and quartiles and a verdict against the bound in side A's
BENCHMARK.json:

  better      B wins at least 9 of 10 pairs and the medians differ by more
              than A's interquartile range
  worse       B's median is worse than A's by more than the bound
  unresolved  the spread of either side exceeds the bound, so neither
              "agree" nor "worse" can be told (unless every B run is worse
              than every A run, which reads as worse)
  agree       otherwise
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED_BASE = 1000


def run_side(side, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(Path(side) / ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{side}: {workload} seed {seed} failed its output checks:\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Verdict on paired samples `a`, `b` (pair i ran with one seed) of a
    metric whose `better` direction is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    worse_by = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if wins >= 0.9 * len(a) and abs(bm - am) > a3 - a1:
        return "better"
    every_worse = min(sign * y for y in b) > max(sign * x for x in a)
    if worse_by > bound and (spread <= bound or every_worse):
        return "worse"
    if spread > bound:
        return "unresolved"
    return "agree"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="baseline source tree")
    ap.add_argument("--b", help="candidate source tree (default: --a, an A/A run)")
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--json", help="also write the report here")
    args = ap.parse_args(argv)

    side_a = Path(args.a).resolve()
    side_b = Path(args.b).resolve() if args.b else side_a
    spec = json.loads((side_a / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    report = []
    for w in workloads:
        runs = {"a": [], "b": []}
        for i in range(PAIRS):
            seed = SEED_BASE + i
            order = [("a", side_a), ("b", side_b)]
            if i % 2:
                order.reverse()
            for key, side in order:
                runs[key].append(run_side(side, w, seed, seconds))
            print(f"{w}: pair {i + 1}/{PAIRS} done", file=sys.stderr)
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r[name] for r in runs["a"]]
            b = [r[name] for r in runs["b"]]
            row = {"workload": w, "metric": name, "unit": m["unit"], "bound": m["bound"],
                   "a_quartiles": quartiles(a), "b_quartiles": quartiles(b),
                   "verdict": verdict(a, b, m["better"], m["bound"])}
            report.append(row)
            (a1, am, a3), (b1, bm, b3) = row["a_quartiles"], row["b_quartiles"]
            print(f"{w:<13} {name:<12} A {am:.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"B {bm:.6g} [{b1:.6g}, {b3:.6g}] {m['unit']:<4} "
                  f"bound {m['bound']:.0%}: {row['verdict']}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

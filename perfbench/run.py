#!/usr/bin/env python3
"""Outside-in benchmark of the OASIS simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (its own Cargo package,
path-dependent on the simulator's crates), then repeats the workload in
fresh processes until `--seconds` have passed. Every repetition checks
its outputs after its timing; the repetitions must also agree with each
other on every value that has to repeat exactly (final digest, digest
trail, simulated time, fuzz report, counts).

With `--trace 0` the metrics are the end-to-end ones in BENCHMARK.json,
medians over the repetitions. With `--trace 1` plain and traced
repetitions alternate and the metrics are the per-layer ones: timings are
medians over the traced repetitions, counts come from RunReport and
FuzzReport, and the tracing overhead is the traced minus the plain run
time. A human-readable summary goes to stderr; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dnn_train", "graph_faults", "fuzz_sweep")
MIN_PLAIN_REPS = 3
# One traced fuzz_sweep repetition takes about three plain ones, so one
# pair is the most that fits every workload's run.
MIN_TRACED_PAIRS = 1
# A hung repetition is cut off early enough that the run still ends
# within three minutes.
REP_TIMEOUT_S = 120


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Builds the benchmark binary into CARGO_TARGET_DIR, else
    .bench_build, and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).absolute()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env, cwd=ROOT)
    return target / "release" / "oasis-perfbench"


def run_rep(binary, workload, seed, traced, size, work_dir):
    """One repetition in a fresh process; returns its JSON record. A
    repetition that crashes, hangs or prints no record is one failed
    operation, marked `crashed`."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--size", size, "--work-dir", str(work_dir)]
    if traced:
        cmd.append("--traced")
    try:
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=REP_TIMEOUT_S)
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        detail = (getattr(e, "stderr", None) or str(e)).strip()[-2000:]
        return {"traced": traced, "crashed": True, "ops": 1, "failed_ops": 1,
                "failures": [f"repetition crashed: {detail}"], "identity": {}, "counts": {}}


def measure(binary, workload, seed, seconds, trace, size, work_dir):
    """Repeats the workload until `seconds` have passed, never starting a
    repetition that the previous one of its kind says would overrun (but
    always reaching the minimum count). In trace mode plain and traced
    repetitions alternate."""
    deadline = time.monotonic() + seconds
    reps, took = [], {False: [], True: []}
    while True:
        plain = sum(1 for r in reps if not r["traced"])
        traced_n = len(reps) - plain
        traced = trace and traced_n < plain
        if trace:
            done = plain >= MIN_TRACED_PAIRS and traced_n >= MIN_TRACED_PAIRS
        else:
            done = plain >= MIN_PLAIN_REPS
        expected = statistics.median(took[traced]) if took[traced] else 0.0
        if done and time.monotonic() + expected > deadline:
            return reps
        t0 = time.monotonic()
        reps.append(run_rep(binary, workload, seed, traced, size, work_dir))
        took[traced].append(time.monotonic() - t0)
        if reps[-1].get("crashed"):
            return reps


def audit(reps):
    """Failure accounting. An operation fails if its repetition's output
    checks failed, or if the repetition disagrees with the first one on a
    value that must repeat exactly. Returns (attempted, failed, problems)."""
    problems = []
    first = next((r for r in reps if not r.get("crashed")), reps[0])
    first_counts = {}
    attempted = failed = 0
    for i, r in enumerate(reps):
        attempted += r["ops"]
        bad = r["failed_ops"]
        problems += [f"rep {i}: {f}" for f in r["failures"]]
        mismatch = [] if r.get("crashed") else [
            k for k in first["identity"] if r["identity"].get(k) != first["identity"][k]]
        counts = {} if r.get("crashed") else first_counts.setdefault(r["traced"], r["counts"])
        mismatch += [k for k in counts if r["counts"].get(k) != counts[k]]
        if mismatch:
            problems.append(f"rep {i} (traced={r['traced']}) differs from earlier runs on {mismatch}")
            bad = r["ops"]
        failed += bad
    return attempted, failed, problems


def median_of(reps, fn):
    """Median over the repetitions; 0 when none finished."""
    return statistics.median(fn(r) for r in reps) if reps else 0.0


def ratio(a, b):
    return a / b if b > 0 else 0.0


def end_to_end(plain):
    return {
        "setup_s": median_of(plain, lambda r: r["setup_s"]),
        "run_s": median_of(plain, lambda r: r["run_s"]),
        "steps_per_s": median_of(plain, lambda r: ratio(r["steps"], r["run_s"])),
        "cases_per_s": median_of(plain, lambda r: ratio(r["ops"], r["run_s"])),
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
    }


def per_layer(workload, plain, traced):
    if not (plain and traced):
        return {}
    metrics = dict(traced[0]["counts"])
    for key in traced[0]["timings"]:
        metrics[key] = median_of(traced, lambda r: r["timings"][key])
    plain_run = median_of(plain, lambda r: r["run_s"])
    traced_run = median_of(traced, lambda r: r["run_s"])
    metrics["trace.overhead_s"] = traced_run - plain_run
    metrics["trace.overhead_share"] = ratio(traced_run - plain_run, plain_run)
    # Sweep plumbing: the part of the sweep's wall time its cases, run
    # serially and spread over the workers, do not account for. A single
    # simulation is its own only case.
    if workload == "fuzz_sweep":
        workers = plain[0]["workers"]
        metrics["engine.sweep_overhead_s"] = plain_run - metrics["fuzz.check_total_s"] / workers
    else:
        metrics["engine.sweep_overhead_s"] = 0.0
    return metrics


def summarize(workload, seed, metrics, listed, reps, attempted, failed, problems):
    """Human-readable report on stderr."""
    err = sys.stderr
    print(f"# {workload} seed={seed}: {len(reps)} repetitions "
          f"({sum(r['traced'] for r in reps)} traced)", file=err)
    for m in listed:
        print(f"  {m['name']:<34} {metrics.get(m['name'], 0.0):>16.6g} {m['unit']:<6} "
              f"{m['better']}", file=err)
    print(f"  failed_share {failed}/{attempted} = {failed / max(attempted, 1):g}", file=err)
    for k, v in next((r["identity"] for r in reps if r["identity"]), {}).items():
        print(f"  {k} {v}", file=err)
    for p in problems:
        print(f"  FAILED: {p}", file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: small inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        binary = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"perfbench: cannot set up: {e}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_build" / "perfbench-work"
    reps = measure(binary, args.workload, args.seed, args.seconds, bool(args.trace),
                   args.size, work_dir)
    finished = [r for r in reps if not r.get("crashed")]
    plain = [r for r in finished if not r["traced"]]
    traced = [r for r in finished if r["traced"]]
    attempted, failed, problems = audit(reps)
    if args.trace:
        listed = spec["per_layer"]
        computed = per_layer(args.workload, plain, traced)
    else:
        listed = spec["end_to_end"]
        computed = end_to_end(plain)
    problems += [f"metric {m['name']} was not measured" for m in listed if m["name"] not in computed]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    summarize(args.workload, args.seed, computed, listed, reps, attempted, failed, problems)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

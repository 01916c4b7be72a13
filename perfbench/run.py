"""Benchmark of milfib: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload cyclotomic|census|searches \
        --seed N --seconds S --trace 0|1

The workload runs in its own single-threaded process (worker.py), a closed
loop of calls into milfib's public functions.  The last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The traced run also prints every layer's figures, its coverage
and its overhead to standard error and writes them to perfbench/out/.

Set-up time is measured from the start of a worker process to its "ready"
line; with --trace 0 set-up is repeated in SETUP_SAMPLES processes and the
median is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cyclotomic", "census", "searches")
SETUP_SAMPLES = 5
DEADLINE_S = 170


def _worker(args, extra=()):
    """Start a worker, return (set-up seconds, its last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    # No .pyc files: every run compiles milfib afresh, so the first run in a
    # checkout measures the same set-up as the others.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(1.0, DEADLINE_S - (start - START)), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def _layer_report(args, summary):
    """The per-layer metrics BENCHMARK.json lists; every layer's figures,
    the coverage and the overhead go to standard error and a trace file."""
    with open("BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer"]
    measured = {**summary["self_s"], **summary["counts"]}
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in listed}
    untraced = statistics.median(summary["passes"])
    traced = statistics.median(summary["traced_passes"])
    overhead = traced / untraced - 1
    op_time = traced
    lines = [f"traced {args.workload} seed {args.seed}: "
             f"{len(summary['traced_passes'])} traced passes, "
             f"coverage {summary['coverage']:.4f}, "
             f"overhead {overhead:+.4f} (traced pass_s {traced:.4f} "
             f"against untraced {untraced:.4f})"]
    for m, v in sorted(summary["self_s"].items()):
        lines.append(f"  {m:30s} {v:10.4f} s  {v / op_time:7.2%} of pass")
    for m, v in sorted(summary["counts"].items()):
        lines.append(f"  {m:30s} {v:10d}")
    print("\n".join(lines), file=sys.stderr)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"),
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "coverage": summary["coverage"], "overhead": overhead,
                   "untraced_pass_s": untraced, "traced_pass_s": traced,
                   "self_s": summary["self_s"], "counts": summary["counts"]},
                  fh, indent=2, sort_keys=True)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "milfib", "__init__.py")):
        print("error: run from the root of a milfib checkout (no src/milfib)",
              file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, ["--setup-only"])[0])
    setup_s, last = _worker(args)
    setups.append(setup_s)
    summary = json.loads(last)
    if summary["problems"]:
        print("\n".join(summary["problems"]), file=sys.stderr)
    print(f"{args.workload}: {summary['inputs']} inputs, "
          f"{len(summary['passes'])} passes, CPU time {summary['cpu_share']:.4f}"
          f" of wall time, failed inputs {summary['failed_inputs']}"
          + (f", exhaustive residue searches on {summary['exhausted_inputs']}"
             f" inputs" if "exhausted_inputs" in summary else ""),
          file=sys.stderr)

    if args.trace:
        metrics = _layer_report(args, summary)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(summary["passes"]), "unit": "s"},
            "op_p50_s": {"value": summary["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


START = time.perf_counter()

if __name__ == "__main__":
    sys.exit(main())

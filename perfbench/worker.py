"""One workload in one single-threaded process.

Started by run.py from the root of a checkout.  It imports milfib from the
checkout's src/, builds the seeded inputs, runs one warm-up operation on an
input outside the timed set and prints "ready": set-up ends there.  It then
runs whole passes over the inputs, each input once per pass, until a further
pass would end after --seconds (at least one pass), checks every output
outside the timed region, and prints one JSON summary as its last line.

With --trace 1 it alternates untraced and traced passes and reports, per
layer, the median over the traced passes.  With --setup-only it stops after
"ready".
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _timed_pass(workload, items):
    times, outputs = [], []
    for item in items:
        start = time.perf_counter()
        out = workload.op(item)
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return times, outputs


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import milfib
    import milfib.cli
    if os.path.dirname(os.path.abspath(milfib.__file__)) != \
            os.path.join(os.getcwd(), "src", "milfib"):
        raise SystemExit(f"milfib imported from {milfib.__file__}, not ./src")
    import workloads

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        return _run(args, workloads, workdir, milfib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir, milfib) -> int:
    workload = workloads.make(args.workload, milfib, workdir)
    specs, warm = workload.inputs(args.seed)
    items = [workload.prepare(spec) for spec in specs]
    workload.summary(workload.op(workload.prepare(warm)))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(milfib)
    passes, op_times, traced_passes, layers = [], [], [], []
    summaries, changed = None, set()

    def keep(outputs):
        # Outside the timed region: later passes must repeat the first.
        nonlocal summaries
        current = [workload.summary(out) for out in outputs]
        if summaries is None:
            summaries = current
        changed.update(spec["name"] for spec, a, b in zip(specs, summaries, current)
                       if a != b)

    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        times, outputs = _timed_pass(workload, items)
        passes.append(sum(times))
        op_times += times
        keep(outputs)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                times, outputs = _timed_pass(workload, items)
            finally:
                tracer.uninstall()
            traced_passes.append(sum(times))
            layers.append((dict(tracer.self_s), dict(tracer.counts),
                           tracer.covered / sum(times)))
            keep(outputs)
        del outputs
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    cpu_share = (time.process_time() - cpu_start) / elapsed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"{name}: output changed between passes" for name in sorted(changed)]
    failed_inputs = []
    for spec, s in zip(specs, summaries):
        failed, found = workload.check(spec, s)
        problems += [f"{spec['name']}: {p}" for p in found]
        if failed:
            failed_inputs.append(spec["name"])
    problems += workload.cross(specs, summaries)
    problems += [f"{spec['name']}: seeded input failed" for spec in specs
                 if spec["seeded"] and spec["name"] in failed_inputs]
    problems += [f"{spec['name']}: fixed input did not fail" for spec in specs
                 if spec["name"].startswith("fixed-")
                 and spec["name"] not in failed_inputs]

    rounds = len(passes) + len(traced_passes)
    result = {
        "correct": not problems,
        "problems": problems[:20],
        "attempted": rounds * len(items),
        "failed": rounds * len(failed_inputs),
        "failed_inputs": failed_inputs,
        "passes": passes,
        "op_p50_s": statistics.median(
            statistics.median(op_times[i::len(items)]) for i in range(len(items))),
        "peak_rss_mb": peak_rss_mb,
        "cpu_share": cpu_share,
        "inputs": len(items),
    }
    if args.workload == "searches":
        result["exhausted_inputs"] = sum(map(workloads.exhausted, summaries))
    if tracer is not None:
        result["traced_passes"] = traced_passes
        result["self_s"] = {m: statistics.median(l[0][m] for l in layers)
                            for m in layers[0][0]}
        result["counts"] = layers[0][1]
        if any(l[1] != layers[0][1] for l in layers):
            result["correct"] = False
            result["problems"].append("per-layer counts differ between passes")
        result["coverage"] = statistics.median(l[2] for l in layers)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

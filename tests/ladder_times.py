"""Times of the jet route on the scaling ladder of ``golden/ladder.json``.

    python tests/ladder_times.py [--parent PATH]

Run from the root of a checkout.  Every member of ``helpers.LADDER`` is
built here, passed as its JSON document to a child process that imports
milfib from a checkout's ``src/``, and timed there, in process:

- ``all_k``: ``milnor.cokernel_dims`` at every k, with one ``JetContext``;
- ``open_k``: the same at the k where both values of
  ``milnor.precheck_vanishing`` hold, the only k a full spectrum computes;
- ``analyze``: ``report.analyze`` on the member;
- ``lifts`` and ``lift_s``: the number of ``linalg.certified_rank`` calls of
  the ``all_k`` run that end in a ``kernel_lift`` certificate, and the time
  spent in them;
- ``primes``: the highest place in the stream ``linalg.field_primes`` (1
  for its first prime) at which a rank of the ``all_k`` run certified, 0
  when none needed a prime.

Each figure is the median of ``REPEATS`` rounds, one child process per
checkout and round.  With ``--parent`` the parent checkout is timed as well,
the two alternating which goes first from round to round, and the table
gives per member the number of rounds in which the change took less time
than the parent on ``all_k`` and on ``lift_s`` (ties count for neither).
The last line of standard output is one JSON object with every median.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 7

CHILD = r"""
import json, sys, time
from milfib import linalg, milnor, report
from milfib.arrangement import Arrangement, build_lattice

def timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start

def jets(arr, lat, ks):
    context = milnor.JetContext(arr, lat)
    for k in ks:
        milnor.cokernel_dims(arr, lat, k, jets=context)

lifts, certified = [], set()
ranked = milnor.certified_rank

def timed_rank(*args):
    start = time.perf_counter()
    result = ranked(*args)
    if result.certificate == "kernel_lift":
        lifts.append(time.perf_counter() - start)
    if result.prime is not None:
        certified.add((args[1], result.prime))
    return result

def place(order, prime):
    return next(i for i, fp in enumerate(linalg.field_primes(order), 1) if fp.p == prime)

milnor.certified_rank = timed_rank
out = {}
for name, data in json.load(sys.stdin).items():
    arr = Arrangement.from_json(data)
    lat = build_lattice(arr)
    ks = range(1, lat.d)
    open_k = [k for k in ks if all(milnor.precheck_vanishing(lat, k))]
    lifts.clear()
    certified.clear()
    out[name] = {"all_k": timed(lambda: jets(arr, lat, ks)),
                 "lifts": len(lifts), "lift_s": sum(lifts),
                 "primes": max((place(*c) for c in certified), default=0),
                 "open_k": timed(lambda: jets(arr, lat, open_k)) if open_k else 0.0,
                 "analyze": timed(lambda: report.analyze(arr))}
print(json.dumps(out))
"""


def _round(tree, documents):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(documents),
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="root of a second checkout to alternate with")
    args = p.parse_args(argv)
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    import helpers

    documents = {name: helpers.ladder_member(name).to_json() for name in helpers.LADDER}
    trees = {"change": os.path.dirname(HERE)}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    rounds = {side: [] for side in trees}
    for r in range(REPEATS):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for side in order:
            rounds[side].append(_round(trees[side], documents))
    metrics = ("all_k", "open_k", "analyze", "lifts", "lift_s", "primes")
    counts = ("lifts", "primes")
    raced = ("all_k", "lift_s") if args.parent else ()
    medians = {side: {name: {m: round(statistics.median(run[name][m] for run in runs), 6)
                             for m in metrics}
                      for name in documents}
               for side, runs in rounds.items()}
    print(f"{'member':<14}" + "".join(f"{side + ' ' + m:>16}" for side in trees
                                      for m in metrics)
          + "".join(f"{'wins ' + m:>16}" for m in raced))
    for name in documents:
        wins = {m: sum(c[name][m] < p[name][m]
                       for c, p in zip(rounds["change"], rounds.get("parent", [])))
                for m in raced}
        print(f"{name:<14}" + "".join(f"{medians[side][name][m]:>16d}" if m in counts
                                      else f"{medians[side][name][m]:>16.4f}"
                                      for side in trees for m in metrics)
              + "".join(f"{f'{wins[m]}/{REPEATS}':>16}" for m in raced))
    print(json.dumps(medians, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

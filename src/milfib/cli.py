"""Command-line surface: every library operation behind one executable.

Exit codes: 0 success with all consistency checks passing, 1 user error
(bad input or usage, unmet precondition), 2 theorem-encoded consistency
failure.  Eigenvalues are always addressed by the integer k (lambda =
exp(2*pi*i*k/d)), never by a floating-point number, and line indices are
0-based everywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import milnor, realize, resonance
from .arrangement import (Arrangement, ArrangementError, GenericityError,
                          build_lattice, generic_section, hyperplanes_from_json,
                          named_arrangement, named_arrangement_names)
from .report import (AnalyzeOptions, analyze, render, settled_skips, skip_note,
                     skipped_stages)


def _add_input_flags(sub):
    sub.add_argument("--name", help="built-in arrangement name "
                     f"({', '.join(named_arrangement_names())})")
    sub.add_argument("--input", help="path to an arrangement JSON file")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the generic plane section of n>3 inputs")


def _load_arrangement(args):
    if bool(args.name) == bool(args.input):
        raise ArrangementError("provide exactly one of --name or --input")
    if args.name:
        return named_arrangement(args.name)
    data = _read_json_object(args.input)
    if "hyperplanes" in data:
        arr, _cert = generic_section(hyperplanes_from_json(data), seed=args.seed,
                                     name=data.get("name", "section"))
        return arr
    return Arrangement.from_json(data)


def _read_json_object(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ArrangementError("the input must be a JSON object")
    if not isinstance(data.get("name", ""), str):
        raise ArrangementError("'name' must be a string")
    if "lines" in data and "hyperplanes" in data:
        raise ArrangementError("the input has both 'lines' and 'hyperplanes'; "
                               "give one of them")
    return data


def _parse_ints(text, option):
    """Comma-separated integers; an empty entry is an error, not skipped."""
    tokens = text.split(",")
    if "" in tokens:
        raise ValueError(f"{option} has an empty entry: {text!r}")
    return [int(tok) for tok in tokens]


def _parse_indices(text):
    indices = _parse_ints(text, "--I")
    if len(set(indices)) != len(indices):
        raise ValueError(f"--I repeats a line index: {text!r}")
    return frozenset(indices)


class _Parser(argparse.ArgumentParser):
    """Usage errors are user errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and reused:
    parsing leaves no state in it."""
    parser = _Parser(
        prog="milfib",
        description="Exact first Milnor cohomology eigenspace dimensions of "
                    "projective line arrangements, by two independent methods.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lattice", help="intersection lattice summary")
    p.set_defaults(func=_cmd_lattice)
    _add_input_flags(p)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = subs.add_parser("aomoto", help="Aomoto complex H^1 for weights from (k, I)")
    p.set_defaults(func=_cmd_aomoto)
    _add_input_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--I", required=True,
                   help="comma-separated 0-based line indices, |I| = k")
    p.add_argument("--distinguished-line", type=int, default=None)

    p = subs.add_parser("milnor", help="jet-evaluation eigenspace dimensions")
    p.set_defaults(func=_cmd_milnor)
    _add_input_flags(p)
    p.add_argument("--k", type=int, default=None,
                   help="one eigenvalue index; omit for the full table")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = subs.add_parser("analyze", help="full analysis document")
    p.set_defaults(func=_cmd_analyze)
    _add_input_flags(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--distinguished-line", type=int, default=None)
    p.add_argument("--search-cap", type=int, default=resonance.DEFAULT_SEARCH_CAP)

    p = subs.add_parser("net", help="detect pencil-type partitions (nets)")
    p.set_defaults(func=_cmd_net)
    _add_input_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--search-cap", type=int, default=resonance.DEFAULT_SEARCH_CAP)

    p = subs.add_parser("cond02", help="residue integrality check or search")
    p.set_defaults(func=_cmd_cond02)
    _add_input_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--I", default=None,
                   help="check this subset; omit to search all k-subsets")
    p.add_argument("--search-cap", type=int, default=resonance.DEFAULT_SEARCH_CAP)

    p = subs.add_parser("theorem1", help="partition-based bound/exact verdicts")
    p.set_defaults(func=_cmd_theorem1)
    _add_input_flags(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--partition", required=True,
                   help="JSON array of d block labels, or @file.json")
    p.add_argument("--distinguished-line", type=int, default=None)

    p = subs.add_parser("realize", help="group-valued realization search")
    p.set_defaults(func=_cmd_realize)
    _add_input_flags(p)
    p.add_argument("--mod", required=True,
                   help="comma-separated moduli of the abelian group")
    p.add_argument("--cap", type=int, default=realize.DEFAULT_ENUM_CAP,
                   help="refuse kernels with more elements than this")
    p.add_argument("--max-candidates", type=int, default=6)

    p = subs.add_parser("section", help="certified generic plane section to P^2")
    p.set_defaults(func=_cmd_section)
    p.add_argument("--input", required=True,
                   help="JSON with 'dimension' and 'hyperplanes'")
    p.add_argument("--seed", type=int, default=0)

    return parser


# Lower bounds of numeric options.  `--m` has none here: net_detect and
# check_pencil_partition reject a bad m themselves.
MINIMUMS = {"cap": 1, "search_cap": 1, "max_candidates": 0}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, low in MINIMUMS.items():
            if getattr(args, name, low) < low:
                raise ValueError(f"--{name.replace('_', '-')} must be >= {low}")
        return args.func(args)
    except (ArrangementError, GenericityError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except milnor.InvariantViolation as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


def _cmd_lattice(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    if args.format == "json":
        payload = {
            "arrangement": arr.to_json(),
            "points": [
                {"point": p.point.to_json(), "lines": sorted(p.lines),
                 "multiplicity": p.multiplicity}
                for p in lat.points
            ],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    hist = lat.multiplicity_histogram()
    print(f"{arr.name or 'arrangement'}: d={lat.d}, "
          + ", ".join(f"{c} points of multiplicity {m}" for m, c in sorted(hist.items())))
    for p in lat.points:
        print(f"  {p.point}  lines={sorted(p.lines)}")
    return 0


def _cmd_aomoto(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    I = _parse_indices(args.I)
    weights = resonance.weights_from_kI(lat.d, args.k, I)
    dim = resonance.aomoto_h1(lat, weights, args.distinguished_line)
    comps = resonance.alpha_components(lat, weights, args.distinguished_line)
    print(f"aomoto_h1={dim} components={len(comps)} "
          f"bound={max(len(comps) - 2, 0)}")
    for c in comps:
        print(f"  component {list(c)}")
    return 0


def _cmd_milnor(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    if args.k is not None:
        grf0, grf1 = milnor.grf_dims(arr, lat, args.k)
        if args.format == "json":
            print(json.dumps({"k": args.k, "grf0": grf0, "grf1": grf1,
                              "b1": grf0 + grf1}, sort_keys=True, indent=2))
        else:
            print(f"k={args.k} grf0={grf0} grf1={grf1} b1={grf0 + grf1}")
        return 0
    reports = milnor.full_spectrum(arr, lat)
    for entry in skipped_stages(lat.d, resonance.DEFAULT_SEARCH_CAP,
                                ["residue_search"]) + settled_skips(reports):
        print(skip_note(entry), file=sys.stderr)
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=2))
        return 0
    for r in reports:
        print(f"k={r.k} lambda={r.lambda_exponent} sigma_k={r.sigma_k_size} "
              f"grf0={r.grf0} grf1={r.grf1} b1={r.b1}")
    return 0


def _cmd_analyze(args) -> int:
    arr = _load_arrangement(args)
    options = AnalyzeOptions(dist=args.distinguished_line,
                             search_cap=args.search_cap)
    doc = analyze(arr, options)
    sys.stdout.write(render(doc, args.format))
    return 0 if doc.all_checks_pass else 2


def _cmd_net(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    nets = resonance.net_detect(lat, args.m, cap=args.search_cap)
    if not nets:
        print(f"no ({args.m}, {lat.d // args.m})-nets")
        return 0
    for phi in nets:
        print(f"net blocks: {phi.blocks()}")
    return 0


def _cmd_cond02(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    if args.I is not None:
        I = _parse_indices(args.I)
        verdict = resonance.check_residue_integrality(lat, args.k, I)
        print(f"I={sorted(I)}: {verdict.branch}")
        if not verdict.holds:
            for idx, value in verdict.positive_hits + verdict.negative_hits:
                point = lat.points[idx]
                print(f"  witness {point.point} lines={sorted(point.lines)} "
                      f"value={value}")
        return 0
    found = resonance.search_residue_subset(lat, args.k, cap=args.search_cap)
    if found is None:
        print(f"k={args.k}: no subset passes")
    else:
        I, verdict = found
        print(f"k={args.k}: I={sorted(I)} ({verdict.branch})")
    return 0


def _cmd_theorem1(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    text = args.partition
    if text.startswith("@"):
        with open(text[1:]) as fh:
            labels = json.load(fh)
    else:
        labels = json.loads(text)
    if not isinstance(labels, list) or any(type(x) is not int for x in labels):
        raise ArrangementError("--partition must be a JSON array of integer labels")
    phi = resonance.PartitionPhi(tuple(labels))
    verdict = resonance.check_pencil_partition(lat, phi, args.m,
                                               args.distinguished_line)
    print(f"m={verdict.m} r={verdict.r} bound={verdict.bound_holds} "
          f"exact={verdict.exact_holds} "
          f"predicted_lower={verdict.predicted_lower} "
          f"predicted_exact={verdict.predicted_exact}")
    for line in verdict.details:
        print(f"  {line}")
    return 0


def _cmd_realize(args) -> int:
    arr = _load_arrangement(args)
    lat = build_lattice(arr)
    system = realize.incidence_from_lattice(lat)
    moduli = _parse_ints(args.mod, "--mod")
    result = realize.search_realizations(system, moduli, cap=args.cap)
    print(f"incidence matrix {system.q}x{system.d}; kernel size "
          f"{result.kernel_size}; {len(result.candidates)} distinct-entry candidates")
    for cand in result.candidates[:args.max_candidates]:
        vec = realize.as_plain_vector(cand.vector, moduli)
        print(f"  x={vec} induced_triples={cand.induced_triples} "
              f"new_triples={cand.new_triples}")
    if len(result.candidates) > args.max_candidates:
        print(f"  ... {len(result.candidates) - args.max_candidates} more")
    return 0


def _cmd_section(args) -> int:
    data = _read_json_object(args.input)
    if "hyperplanes" not in data:
        raise ArrangementError("section input needs a 'hyperplanes' field")
    arr, cert = generic_section(hyperplanes_from_json(data), seed=args.seed,
                                name=data.get("name", "section"))
    payload = {
        "arrangement": arr.to_json(),
        "certificate": {
            "seed": cert.seed,
            "attempts": cert.attempts,
            "flat_index_sets": [sorted(f) for f in cert.flat_index_sets],
        },
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0

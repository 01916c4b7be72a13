"""Command-line surface: every library operation behind one executable.

Exit codes: 0 success with all consistency checks passing, 1 user error
(bad input, unmet precondition), 2 theorem-encoded consistency failure.
Eigenvalues are always addressed by the integer k (lambda = exp(2*pi*i*k/d)),
never by a floating-point number, and line indices are 0-based everywhere.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import milnor, realize, resonance
from .arrangement import (Arrangement, ArrangementError, GenericityError,
                          build_lattice, generic_section, hyperplanes_from_json,
                          named_arrangement, named_arrangement_names)
from .linalg import Matrix, int_det, nullspace, rank
from .report import AnalyzeOptions, analyze, render, skip_note, skipped_stages


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
    return data


def _parse_indices(text):
    return frozenset(int(tok) for tok in text.split(",") if tok != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = subs.add_parser("examples", help="run the built-in fixture suite")
    p.set_defaults(func=lambda args: examples_suite(only=args.only))
    p.add_argument("--only", default=None, help="run a single fixture by name")

    return parser


# Lower bounds of the numeric options, checked here rather than by argparse,
# whose usage errors exit 2: that code means a consistency failure.
MINIMUMS = {"m": 1, "cap": 1, "search_cap": 1, "max_candidates": 0}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
        print(f"k={args.k} grf0={grf0} grf1={grf1} b1={grf0 + grf1}")
        return 0
    reports = milnor.full_spectrum(arr, lat)
    for entry in skipped_stages(lat.d, resonance.DEFAULT_SEARCH_CAP,
                                ["residue_search"]):
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
    moduli = [int(tok) for tok in args.mod.split(",") if tok != ""]
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


# ---------------------------------------------------------------------------
# The fixture suite: every built-in arrangement against its known values.


# Expected values of the named fixtures and of the braid section: the b1
# vector over k = 1..d-1, the lattice summary entries, grf pairs per k,
# residue certificates found (True) or not (False) per k, the number of
# nets per m, and the m of a partition that must carry an exact verdict.
EXPECTED = {
    "braid": {"b1": [0, 1, 0, 1, 0], "grf": {2: (0, 1)}, "nets": {"3": 1}},
    "pappus-dual": {"b1": [0, 0, 1, 0, 0, 1, 0, 0], "residue": {"3": True},
                    "exact_partition": 3},
    "ex-3-1-iii": {"b1": [0] * 8, "residue": {"3": False}, "nets": {"3": 0}},
    "ceva3": {"b1": [0, 0, 2, 0, 0, 2, 0, 0],
              "lattice": {"sigma_size": 12, "double_count": 0}},
    "hesse": {"b1": [0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0],
              "lattice": {"sigma_size": 9,
                          "multiplicity_histogram": {"2": 12, "4": 9}},
              "exact_partition": 4},
    "section": {"b1": [0, 1, 0, 1, 0],
                "lattice": {"multiplicity_histogram": {"2": 3, "3": 4}}},
}
NAMED_FIXTURES = ("braid", "pappus-dual", "ex-3-1-iii", "ceva3", "hesse")


def examples_suite(only: str | None = None, registry=None, out=print) -> int:
    """Run the built-in fixtures end to end; nonzero exit on any mismatch."""
    registry = registry if registry is not None else {
        name: (lambda n=name: named_arrangement(n)) for name in NAMED_FIXTURES}
    fixtures = [(name, lambda n=name: _expect_named(registry, n))
                for name in NAMED_FIXTURES]
    fixtures += [("realization", lambda: _expect_realization(registry)),
                 ("section", _expect_section)]
    if only is not None:
        fixtures = [f for f in fixtures if f[0] == only]
        if not fixtures:
            out(f"unknown fixture {only!r}")
            return 1
    failures = 0
    for name, expect in fixtures:
        try:
            problems = expect()
        except Exception as exc:  # a crash is a failed fixture, not a crash of the suite
            problems = [f"exception: {exc!r}"]
        if problems:
            failures += 1
            out(f"FAIL {name}")
            for p in problems:
                out(f"     {p}")
        else:
            out(f"PASS {name}")
    return 2 if failures else 0


def _document_problems(doc, expected) -> list[str]:
    problems = []
    b1 = [r.b1 for r in doc.eigen]
    if b1 != expected["b1"]:
        problems.append(f"b1 vector {b1} != {expected['b1']}")
    for key, value in expected.get("lattice", {}).items():
        if doc.lattice_summary[key] != value:
            problems.append(f"lattice {key} {doc.lattice_summary[key]} != {value}")
    for k, pair in expected.get("grf", {}).items():
        r = doc.eigen[k - 1]
        if (r.grf0, r.grf1) != pair:
            problems.append(f"grf({k}) = {(r.grf0, r.grf1)} != {pair}")
    for k, found in expected.get("residue", {}).items():
        if bool(doc.residue_certificates.get(k, {}).get("found")) != found:
            problems.append(f"residue certificate at k={k} found is not {found}")
    for m, count in expected.get("nets", {}).items():
        if len(doc.nets.get(m) or []) != count:
            problems.append(f"expected exactly {count} nets for m={m}")
    m = expected.get("exact_partition")
    if m is not None and not any(v["exact_holds"] for v in doc.partition_verdicts
                                 if v["m"] == m):
        problems.append(f"no exact partition certificate with m={m}")
    if not doc.all_checks_pass:
        problems.append("consistency checks failed")
    return problems


def _expect_named(registry, name):
    arr = registry[name]()
    lat = build_lattice(arr)
    doc = analyze(arr, lattice=lat)
    problems = _document_problems(doc, EXPECTED[name])
    if name == "ceva3":
        problems += _ceva3_jets(arr, lat, doc)
    elif name == "hesse":
        problems += _hesse_jets(arr, lat)
    return problems


def _ceva3_jets(arr, lat, doc):
    problems = []
    if nullspace(milnor.jet_matrix(arr, lat, 6, False)):
        problems.append("cubic evaluation at the 12 points is not injective")
    weights = resonance.weights_from_kI(9, 3, frozenset({0, 1, 2}))
    a = resonance.aomoto_h1(lat, weights)
    if not a < doc.eigen[2].b1:
        problems.append(f"aomoto {a} not strictly below b1 {doc.eigen[2].b1}")
    return problems


def _hesse_jets(arr, lat):
    problems = []
    kernel = nullspace(milnor.jet_matrix(arr, lat, 6, False))
    if len(kernel) != 2:
        problems.append(f"evaluation kernel dimension {len(kernel)} != 2")
    basis = milnor.monomial_basis(3)
    span = rank(Matrix.from_rows(kernel, cols=len(basis), order=arr.field_order))
    for poly in (((3, 0, 0), (0, 3, 0), (0, 0, 3)), ((1, 1, 1),)):
        vec = [1 if mono in poly else 0 for mono in basis]
        rows = kernel + [vec]
        if rank(Matrix.from_rows(rows, cols=len(basis), order=arr.field_order)) != span:
            problems.append(f"{poly} not in the evaluation kernel span")
    return problems


def _expect_realization(registry):
    problems = []
    lat = build_lattice(registry["ex-3-1-iii"]())
    system = realize.incidence_from_lattice(lat)
    if abs(int_det(system.matrix())) != 27:
        problems.append("|det| of the incidence matrix != 27")
    result = realize.search_realizations(system, [27])
    reference = realize.from_plain_vector([7, 1, 4, 19, 22, 16, 13, 10, 25], [27])
    hit = next((c for c in result.candidates
                if realize.same_affine_orbit(reference, c.vector, [27])), None)
    if hit is None:
        problems.append("no candidate in the reference affine orbit")
    elif (hit.induced_triples, hit.new_triples) != (9, 0):
        problems.append(f"triple counts {(hit.induced_triples, hit.new_triples)}")
    return problems


def _expect_section():
    hyperplanes = []
    for i in range(4):
        for j in range(i + 1, 4):
            v = [0] * 4
            v[i], v[j] = 1, -1
            hyperplanes.append(v)
    arr, _cert = generic_section(hyperplanes, seed=0, name="braid-section")
    return _document_problems(analyze(arr), EXPECTED["section"])

"""The three workloads: their inputs, their operation and the checks on it.

A workload provides
  inputs(seed)      -> (timed inputs, warm-up input), built by inputs.py
  prepare(spec)     -> what the operation receives, made during set-up
  op(item)          -> the raw program output, the only timed call
  summary(out)      -> plain data for the checks, made outside the timed region
  check(spec, s)    -> (failed, problems) for one operation
  cross(specs, ss)  -> problems across the copies of one base arrangement

An operation counts as failed when its output shows the net detection fault:
a reported net that breaks the full net condition.  Any other problem makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks
import inputs


def _stream(seed, salt):
    return random.Random(f"{salt}:{seed}")


def _hides_false_net(spec):
    return checks.hides_false_net(spec["points"], inputs.size(spec))


def _seeded_copy(base, rng):
    """The seeded copy of a seed-free base, or the base itself when the net
    detection fault fires on it: the fault then fails the same operations
    on every seed, as the failure share must."""
    return base if _hides_false_net(base) else inputs.permuted_copy(base, rng)


# ---------------------------------------------------------------------------
# Checks shared by the workloads that compute analysis documents.


def _false_nets(spec, nets):
    """Reported nets that break the full net condition, as (m, labels)."""
    return [(int(m), labels) for m, found in nets.items() for labels in found
            if checks.net_violations(spec["points"], labels, int(m))]


def _residue_problems(spec, d, found_by_k):
    """found_by_k maps k to (subset, branch) or None."""
    problems = []
    for k, found in found_by_k.items():
        if found is None:
            if checks.has_residue_subset(spec["points"], d, k):
                problems.append(f"k={k}: search found nothing, enumeration did")
            continue
        subset, branch = found
        if len(subset) != k:
            problems.append(f"k={k}: subset of size {len(subset)}")
        verdict = checks.residue_verdict(spec["points"], d, k, subset)
        if verdict == "fails" or verdict != branch:
            problems.append(f"k={k}: I={subset} recomputes to {verdict}, "
                            f"reported {branch}")
    return problems


def _document_check(spec, doc, exit_code=0):
    d = doc["d"]
    problems = []
    if doc["lattice"]["multiplicity_histogram"] != {
            str(m): c for m, c in checks.histogram(spec["points"]).items()}:
        problems.append(f"histogram {doc['lattice']['multiplicity_histogram']}")
    false = _false_nets(spec, doc["nets"])
    genuine = sorted({int(m) for m, found in doc["nets"].items() for labels in found
                      if (int(m), labels) not in false})
    problems += checks.b1_problems(spec["points"], d, doc["eigen"], genuine)
    problems += _residue_problems(spec, d, {
        int(k): (info["I"], info["branch"]) if info["found"] else None
        for k, info in doc["residue_certificates"].items()})
    failing = sorted(c["name"] for c in doc["consistency"] if not c["passed"])
    failed = bool(false) or exit_code != 0
    if failed and not (false and failing in ([], ["partition_predictions"])):
        problems.append(f"failure not explained by a false net: checks {failing}, "
                        f"exit {exit_code}")
    return failed, problems


def _b1_vector(doc):
    return [r["b1"] for r in doc["eigen"]]


def _net_counts(nets):
    return {int(m): len(found) for m, found in nets.items()}


def _cross_documents(specs, docs):
    problems = []
    groups = {}
    for spec, doc in zip(specs, docs):
        groups.setdefault(spec["base"], []).append((spec["name"], doc))
    for base, members in groups.items():
        first_name, first = members[0]
        for name, doc in members[1:]:
            if _b1_vector(doc) != _b1_vector(first):
                problems.append(f"{base}: b1 of {name} differs from {first_name}")
            if _net_counts(doc["nets"]) != _net_counts(first["nets"]):
                problems.append(f"{base}: net count of {name} differs")
    return problems


# ---------------------------------------------------------------------------
# cyclotomic: report.analyze on large arrangements over Q(zeta_3) and Q(i).


class Cyclotomic:
    name = "cyclotomic"

    def __init__(self, milfib):
        self.milfib = milfib

    def inputs(self, seed):
        rng = _stream(seed, self.name)
        specs = []
        for base in (inputs.ceva(3), inputs.hesse(), inputs.ceva(4),
                     inputs.full_monomial(3)):
            specs += [base, inputs.transformed_copy(base, rng)]
        warm = inputs.ceva(3)
        warm = inputs.line_input("warm-up", 3, warm["lines"][:8])
        return specs, warm

    def prepare(self, spec):
        return self.milfib.Arrangement.from_json(inputs.to_json(spec))

    def op(self, arr):
        return self.milfib.report.analyze(arr)

    def summary(self, doc):
        return json.loads(json.dumps(doc.as_dict()))

    def check(self, spec, doc):
        return _document_check(spec, doc)

    def cross(self, specs, docs):
        return _cross_documents(specs, docs)


# ---------------------------------------------------------------------------
# census: `milfib analyze --input FILE --format json`, in process, on many
# small and medium rational arrangements.


class Census:
    name = "census"
    # Three random bases are drawn for each d; only the first one or two of
    # the costly d = 11, 12 are used, which keeps a pass short enough that a
    # run times each operation 3 to 5 times for op_p50_s.
    used = {11: 2, 12: 1}

    def __init__(self, milfib, workdir):
        self.milfib = milfib
        self.workdir = workdir

    def inputs(self, seed):
        rng = _stream(seed, self.name)
        fixed = _stream(0, "census-bases")
        drawn = [(d, c, inputs.random_rational(fixed, d, f"random{d}-{c}"))
                 for d in range(5, 13) for c in range(3)]
        bases = [b for d, c, b in drawn if c < self.used.get(d, 3)]
        bases += [inputs.random_hyperplanes(fixed, 4, 8, "random-C4"),
                  inputs.random_hyperplanes(fixed, 5, 9, "random-C5")]
        specs = [_seeded_copy(base, rng) for base in bases]
        specs += [inputs.rational(name, lines)
                  for name, lines in inputs.FIXTURES.items()]
        specs += [inputs.section_input("braid-A3", inputs.braid_hyperplanes(3)),
                  inputs.section_input("braid-A4", inputs.braid_hyperplanes(4)),
                  inputs.six_lines(), inputs.three_pencils(3)]
        warm = inputs.rational("warm-up", inputs.FIXTURES["pappus-dual"][:8])
        return specs, warm

    def prepare(self, spec):
        path = os.path.join(self.workdir, f"{len(os.listdir(self.workdir))}.json")
        with open(path, "w") as fh:
            json.dump(inputs.to_json(spec), fh)
        return ["analyze", "--input", path, "--format", "json"]

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.milfib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def summary(self, result):
        code, out, err = result
        return {"exit": code, "doc": json.loads(out) if out else None, "stderr": err}

    def check(self, spec, s):
        if s["exit"] not in (0, 2) or s["doc"] is None:
            return False, [f"exit {s['exit']}: {s['stderr'].strip()}"]
        return _document_check(spec, s["doc"], s["exit"])

    def cross(self, specs, summaries):
        return []


# ---------------------------------------------------------------------------
# searches: the combinatorial route alone, as `milfib cond02`, `net` and
# `realize` run it, on 12 to 16 lines.


class Searches:
    name = "searches"
    random_ds = (12, 13, 14, 15, 16)

    def __init__(self, milfib):
        self.milfib = milfib

    def inputs(self, seed):
        rng = _stream(seed, self.name)
        fixed = _stream(0, "searches-bases")
        bases = [dict(inputs.section_input("braid-A5", inputs.braid_hyperplanes(5)),
                      moduli=(2, 2)),
                 dict(inputs.section_input("D4", inputs.reflection_hyperplanes(4, False)),
                      moduli=(17,)),
                 inputs.section_input("B4", inputs.reflection_hyperplanes(4, True)),
                 inputs.cubic_dual([t for t in range(-6, 7) if t], 13),
                 inputs.cubic_dual([t for t in range(-8, 9) if t], 17),
                 inputs.hesse(), inputs.ceva(4)]
        bases += [inputs.random_rational(fixed, d, f"random{d}") for d in self.random_ds]
        specs = []
        for base in bases:
            specs.append(base)
            if not _hides_false_net(base):
                specs.append(inputs.permuted_copy(base, rng))
        specs.append(inputs.three_pencils(4))
        warm = inputs.section_input("warm-up", inputs.braid_hyperplanes(4))
        return specs, warm

    def prepare(self, spec):
        return inputs.to_json(spec), spec.get("moduli")

    def op(self, item):
        data, moduli = item
        milfib = self.milfib
        A, R, Z = milfib.arrangement, milfib.resonance, milfib.realize
        if "hyperplanes" in data:
            planes = [[milfib.CycloNumber.from_json(v, 1) for v in row]
                      for row in data["hyperplanes"]]
            arr, _ = A.generic_section(planes)
        else:
            arr = A.Arrangement.from_json(data)
        lat = A.build_lattice(arr)
        d = lat.d
        residue = {k: R.search_residue_subset(lat, k) for k in range(1, d // 2 + 1)}
        nets = {m: R.net_detect(lat, m) for m in range(3, d) if d % m == 0}
        verdicts = [R.check_pencil_partition(lat, phi, m)
                    for m, found in nets.items() for phi in found]
        realized = None
        if moduli is not None:
            system = Z.incidence_from_lattice(lat)
            realized = (moduli, Z.search_realizations(system, moduli))
        return d, residue, nets, verdicts, realized

    def summary(self, out):
        d, residue, nets, verdicts, realized = out
        s = {"d": d,
             "residue": {k: None if f is None else (sorted(f[0]), f[1].branch)
                         for k, f in residue.items()},
             "nets": {m: [list(phi.labels) for phi in found]
                      for m, found in nets.items()},
             "verdicts": [(v.m, v.bound_holds, v.exact_holds) for v in verdicts],
             "realize": None}
        if realized is not None:
            moduli, result = realized
            s["realize"] = {"moduli": moduli, "kernel": result.kernel_size,
                            "vectors": [c.vector for c in result.candidates]}
        return s

    def check(self, spec, s):
        d = s["d"]
        problems = _residue_problems(spec, d, s["residue"])
        if s["realize"] is not None:
            moduli = s["realize"]["moduli"]
            triples = checks.multiple_points(spec["points"])
            for vector in s["realize"]["vectors"]:
                problems += checks.realization_problems(triples, vector, moduli)
            known = spec.get("realization")
            if known and tuple(known[0]) == tuple(moduli) \
                    and tuple(known[1]) not in s["realize"]["vectors"]:
                problems.append("the known realization was not found")
        failed = bool(_false_nets(spec, s["nets"]))
        return failed, problems

    def cross(self, specs, summaries):
        problems = []
        groups = {}
        for spec, s in zip(specs, summaries):
            groups.setdefault(spec["base"], []).append(s)
        for base, members in groups.items():
            shapes = {(json.dumps(_net_counts(s["nets"]), sort_keys=True),
                       tuple(f is None for f in s["residue"].values()))
                      for s in members}
            if len(shapes) != 1:
                problems.append(f"{base}: copies differ in nets or residue search")
        return problems


def exhausted(summary):
    """Whether a searches operation ran the residue search through every
    subset for some k."""
    return any(f is None for f in summary["residue"].values())


def make(name, milfib, workdir):
    """The workload called name, calling into the imported milfib package."""
    if name == "cyclotomic":
        return Cyclotomic(milfib)
    if name == "census":
        return Census(milfib, workdir)
    return Searches(milfib)

"""Per-arrangement analysis documents and their renderings.

``analyze`` runs the full battery on one arrangement: lattice summary, one
eigen report per k from the jet-evaluation route (the k the vanishing
criterion settles are named in ``skipped``) with attached Aomoto
certificates where the residue check succeeds, net detection with the
partition-based predictions, and a list of consistency checks.  Every check
encodes a theorem, so a failed check is diagnostic gold: it is recorded in
the document (and surfaces as exit code 2 at the CLI) instead of aborting.

JSON renderings are byte-stable: sorted keys, canonical "p/q" rational
strings, and deterministic orderings everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from . import milnor, resonance
from .arrangement import Arrangement, build_lattice


@dataclass(frozen=True)
class AnalyzeOptions:
    dist: int | None = None
    search_cap: int = resonance.DEFAULT_SEARCH_CAP


@dataclass(frozen=True)
class ConsistencyCheck:
    name: str
    passed: bool
    details: str = ""

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class AnalysisDocument:
    name: str
    d: int
    field_order: int
    lattice_summary: dict
    eigen: tuple
    residue_certificates: dict
    nets: dict
    partition_verdicts: tuple
    consistency: tuple
    skipped: tuple = ()

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.consistency)

    def as_dict(self) -> dict:
        data = {
            "name": self.name,
            "d": self.d,
            "field_order": self.field_order,
            "lattice": self.lattice_summary,
            "eigen": [r.as_dict() for r in self.eigen],
            "residue_certificates": self.residue_certificates,
            "nets": self.nets,
            "partition_verdicts": list(self.partition_verdicts),
            "consistency": [c.as_dict() for c in self.consistency],
        }
        if self.skipped:
            data["skipped"] = list(self.skipped)
        return data


def skipped_stages(d: int, cap: int, stages) -> list[dict]:
    """One entry per search stage left out because d exceeds the search cap."""
    if d <= cap:
        return []
    return [{"stage": stage, "d": d, "cap": cap} for stage in stages]


def settled_skips(reports) -> list[dict]:
    """The entry naming the k whose jets the vanishing criterion settles."""
    settled = [r.k for r in reports if not (r.precheck_point and r.precheck_lines)]
    if not settled:
        return []
    return [{"stage": "jets", "k": settled, "reason": "vanishing criterion"}]


def skip_note(entry: dict) -> str:
    if "k" in entry:
        return (f"skipped {entry['stage']} at k={','.join(map(str, entry['k']))}: "
                f"zero by the {entry['reason']}")
    return f"skipped {entry['stage']}: d={entry['d']} > search cap {entry['cap']}"


def analyze(arr: Arrangement, options: AnalyzeOptions | None = None) -> AnalysisDocument:
    options = options or AnalyzeOptions()
    # Checked here because above the search cap no stage reads the index.
    resonance._default_dist(arr.d, options.dist)
    lattice = build_lattice(arr)
    d = lattice.d

    hist = lattice.multiplicity_histogram()
    lattice_summary = {
        "sigma_size": len(lattice.sigma()),
        "double_count": len(lattice.doubles()),
        "multiplicity_histogram": {str(m): c for m, c in sorted(hist.items())},
        "b1_lambda_one": d - 1,
    }

    searches = milnor.residue_searches(lattice, options.search_cap)
    candidates = [m for m in range(3, d) if d % m == 0]
    stages = ["residue_search", "net_detect"] if candidates else ["residue_search"]
    skipped = skipped_stages(d, options.search_cap, stages)
    reports, agreements = milnor.spectrum_with_checks(arr, lattice, searches,
                                                      options.dist)
    skipped += settled_skips(reports)

    residue_certs: dict = {}
    for k, found in searches.items():
        if found is None:
            residue_certs[str(k)] = {"found": False}
        else:
            I, verdict = found
            residue_certs[str(k)] = {
                "found": True, "I": sorted(I), "branch": verdict.branch}

    nets: dict = {}
    partition_verdicts = []
    if d <= options.search_cap:
        for m in candidates:
            found = resonance.net_detect(lattice, m, cap=options.search_cap)
            nets[str(m)] = [list(phi.labels) for phi in found]
            for phi in found:
                verdict = resonance.check_pencil_partition(
                    lattice, phi, m, dist=options.dist)
                partition_verdicts.append({
                    "m": m,
                    "labels": list(phi.labels),
                    "bound_holds": verdict.bound_holds,
                    "exact_holds": verdict.exact_holds,
                    "predicted_lower": verdict.predicted_lower,
                    "predicted_exact": verdict.predicted_exact,
                })

    consistency = _consistency_checks(d, reports, agreements, partition_verdicts)
    return AnalysisDocument(
        name=arr.name, d=d, field_order=arr.field_order,
        lattice_summary=lattice_summary,
        eigen=tuple(reports),
        residue_certificates=residue_certs,
        nets=nets,
        partition_verdicts=tuple(partition_verdicts),
        consistency=tuple(consistency),
        skipped=tuple(skipped),
    )


def _consistency_checks(d, reports, agreements, verdicts):
    by_k = {r.k: r for r in reports}
    checks = []

    bad = [f"k={k}: {a} != {b}" for k, a, b in agreements if a != b]
    checks.append(ConsistencyCheck(
        "evaluation_maps_agree", not bad, "; ".join(bad)))

    bad = []
    for r in reports:
        conj = by_k[d - r.k]
        if r.b1 != conj.b1 or r.grf0 != conj.grf1:
            bad.append(f"k={r.k}")
    checks.append(ConsistencyCheck(
        "conjugation_symmetry", not bad, "; ".join(bad)))

    bad = [f"k={r.k}" for r in reports
           if r.sigma_k_size != by_k[d - r.k].sigma_k_size]
    checks.append(ConsistencyCheck(
        "sigma_k_conjugation", not bad, "; ".join(bad)))

    bad = [f"k={r.k}: aomoto {r.aomoto} > b1 {r.b1}"
           for r in reports if r.aomoto is not None and r.aomoto > r.b1]
    checks.append(ConsistencyCheck(
        "aomoto_below_b1", not bad, "; ".join(bad)))

    bad = [f"k={r.k}: aomoto {r.aomoto} != b1 {r.b1}"
           for r in reports
           if r.aomoto_certificate is not None and r.aomoto != r.b1]
    checks.append(ConsistencyCheck(
        "aomoto_equals_b1_with_certificate", not bad, "; ".join(bad)))

    bad = []
    for v in verdicts:
        m = v["m"]
        if v["exact_holds"]:
            for k in range(1, d):
                if k * m % d == 0 and gcd(k * m // d, m) == 1:
                    if by_k[k].b1 != v["predicted_exact"]:
                        bad.append(f"m={m}, k={k}: b1 {by_k[k].b1} != {v['predicted_exact']}")
        if v["bound_holds"]:
            for k in range(1, d):
                if k * m % d == 0 and by_k[k].b1 < v["predicted_lower"]:
                    bad.append(f"m={m}, k={k}: b1 {by_k[k].b1} < {v['predicted_lower']}")
    checks.append(ConsistencyCheck(
        "partition_predictions", not bad, "; ".join(bad)))

    return checks


# ---------------------------------------------------------------------------
# Rendering.


def render(doc: AnalysisDocument, fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps(doc.as_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "table":
        return _render_table(doc)
    raise ValueError(f"unknown format {fmt!r}; use 'json' or 'table'")


def _render_table(doc: AnalysisDocument) -> str:
    lines = []
    lines.append(f"arrangement {doc.name or '(unnamed)'}: d={doc.d}, "
                 f"field order {doc.field_order}")
    ls = doc.lattice_summary
    hist = ", ".join(f"m={m}: {c}" for m, c in ls["multiplicity_histogram"].items())
    lines.append(f"lattice: |Sigma|={ls['sigma_size']}, doubles={ls['double_count']}"
                 f" ({hist}); b1 at lambda=1 is {ls['b1_lambda_one']}")
    lines.append("")
    header = (f"{'k':>3} {'lambda':>8} {'|S(k)|':>6} {'pre_pt':>6} {'pre_ln':>6} "
              f"{'grf0':>4} {'grf1':>4} {'b1':>3} {'aomoto':>6}  certificate")
    lines.append(header)
    lines.append("-" * len(header))
    for r in doc.eigen:
        cert = ""
        if r.aomoto_certificate:
            cert = (f"k={r.aomoto_certificate['k']} "
                    f"I={r.aomoto_certificate['I']} "
                    f"({r.aomoto_certificate['branch']})")
        aom = "-" if r.aomoto is None else str(r.aomoto)
        lines.append(
            f"k={r.k:<2} {r.lambda_exponent:>8} {r.sigma_k_size:>6} "
            f"{str(r.precheck_point):>6} {str(r.precheck_lines):>6} "
            f"{r.grf0:>4} {r.grf1:>4} b1={r.b1:<2} {aom:>5}  {cert}")
    lines.append("")
    if doc.residue_certificates:
        lines.append("residue integrality search (k <= d/2):")
        for k, info in sorted(doc.residue_certificates.items(), key=lambda t: int(t[0])):
            if info.get("found"):
                lines.append(f"  k={k}: I={info['I']} ({info['branch']})")
            else:
                lines.append(f"  k={k}: none")
    if doc.nets:
        lines.append("nets:")
        for m, partitions in sorted(doc.nets.items(), key=lambda t: int(t[0])):
            if partitions:
                for labels in partitions:
                    blocks = resonance.PartitionPhi(labels).blocks()
                    lines.append(f"  m={m}: blocks {blocks}")
            else:
                lines.append(f"  m={m}: none")
    for v in doc.partition_verdicts:
        blocks = resonance.PartitionPhi(v["labels"]).blocks()
        lines.append(f"partition m={v['m']} blocks {blocks}: "
                     f"bound={v['bound_holds']} (>= {v['predicted_lower']}), "
                     f"exact={v['exact_holds']} (= {v['predicted_exact']})")
    for entry in doc.skipped:
        lines.append(skip_note(entry))
    lines.append("")
    lines.append("consistency checks:")
    for c in doc.consistency:
        status = "pass" if c.passed else "FAIL"
        suffix = f" [{c.details}]" if c.details else ""
        lines.append(f"  {status}  {c.name}{suffix}")
    return "\n".join(lines) + "\n"

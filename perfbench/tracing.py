"""Per-layer spans for the traced run, recorded from the benchmark's side.

Each layer's public functions are wrapped under the names other modules call
them by (for example `milnor.rank` as well as `arrangement.rank`), so the
program itself is not edited.  A span's self time is its duration minus the
time covered by its child spans.  Spans are summed in memory per name.
"""

from __future__ import annotations

import time

# (metric, module path, attribute): every place a layer entry point is
# looked up at call time.  Class attributes are given as "module.Class".
SPANS = [
    ("cli.self_s", "cli", "main"),
    ("arrangement.from_json_s", "arrangement.Arrangement", "from_json"),
    ("arrangement.section_s", "arrangement", "generic_section"),
    ("arrangement.section_s", "cli", "generic_section"),
    ("arrangement.lattice_s", "arrangement", "build_lattice"),
    ("arrangement.lattice_s", "cli", "build_lattice"),
    ("arrangement.lattice_s", "report", "build_lattice"),
    ("arrangement.lattice_s", "milnor", "build_lattice"),
    ("milnor.assemble_s", "milnor", "cokernel_dims"),
    ("linalg.rank_s", "milnor", "rank"),
    ("linalg.rank_s", "arrangement", "rank"),
    ("linalg.nullspace_s", "milnor", "nullspace"),
    ("linalg.nullspace_s", "resonance", "nullspace"),
    ("resonance.residue_search_s", "resonance", "search_residue_subset"),
    ("resonance.net_detect_s", "resonance", "net_detect"),
    ("resonance.partition_check_s", "resonance", "check_pencil_partition"),
    ("resonance.aomoto_s", "resonance", "aomoto_h1"),
    ("realize.search_s", "realize", "search_realizations"),
    ("report.analyze_self_s", "report", "analyze"),
    ("report.analyze_self_s", "cli", "analyze"),
    ("report.render_s", "cli", "render"),
]

TIMES = sorted({metric for metric, _, _ in SPANS})
COUNTS = ["arrangement.lattice_points", "linalg.calls", "linalg.cells",
          "resonance.residue_searches", "resonance.nets_found",
          "realize.kernel_elements"]


def _count(tracer, metric, args, result):
    c = tracer.counts
    if metric == "arrangement.lattice_s":
        c["arrangement.lattice_points"] += len(result.points)
    elif metric in ("linalg.rank_s", "linalg.nullspace_s"):
        c["linalg.calls"] += 1
        c["linalg.cells"] += args[0].rows * args[0].cols
    elif metric == "resonance.residue_search_s":
        c["resonance.residue_searches"] += 1
    elif metric == "resonance.net_detect_s":
        c["resonance.nets_found"] += len(result)
    elif metric == "realize.search_s":
        c["realize.kernel_elements"] += result.kernel_size


class Tracer:
    """Wraps the layer entry points while installed; sums self times."""

    def __init__(self, package):
        self.package = package
        self.saved = []
        self.reset()

    def reset(self):
        self.self_s = {m: 0.0 for m in TIMES}
        self.counts = {m: 0 for m in COUNTS}
        self.covered = 0.0
        self.stack = []

    def _owner(self, path):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap(self, metric, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                tracer.stack.pop()
                tracer.self_s[metric] += span - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += span
                else:
                    tracer.covered += span
            _count(tracer, metric, args, result)
            return result
        return traced

    def install(self):
        for metric, path, attr in SPANS:
            owner = self._owner(path)
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                bound = getattr(owner, attr)
                setattr(owner, attr, staticmethod(self._wrap(metric, bound)))
            else:
                setattr(owner, attr, self._wrap(metric, original))

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

"""The benchmark's traced run (perfbench/tracing.py) wraps layer entry points
by looking each name up in a module's or class's ``__dict__``.  A name that
the program no longer calls there (``milnor.rank``, ``milnor.build_lattice``,
``resonance.nullspace``, ...) must still be found, or the traced run breaks.
"""

import importlib.util
import os

import milfib
import milfib.cli  # noqa: F401  imported by the benchmark worker as well

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_every_traced_span_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _metric, path, attr in tracing.SPANS:
        owner = milfib
        for part in path.split("."):
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append(f"{path}.{attr}")
    assert tracing.SPANS and not missing

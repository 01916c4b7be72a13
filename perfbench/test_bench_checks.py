"""The benchmark's output checks reject deliberately wrong outputs.

Quick: no workload runs and milfib is not imported.
    python3 -m pytest -q perfbench/test_bench_checks.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

BRAID = inputs.rational("braid", inputs.FIXTURES["braid"])
BRAID_NET = [0, 1, 2, 2, 1, 0]


def _eigen(b1, grf0):
    d = len(b1) + 1
    return [{"k": k, "b1": b1[k - 1], "grf0": grf0[k - 1],
             "grf1": b1[k - 1] - grf0[k - 1]} for k in range(1, d)]


def test_braid_incidence():
    assert checks.histogram(BRAID["points"]) == {2: 3, 3: 4}


def test_b1_vector_off_by_one_is_rejected():
    good = _eigen([0, 1, 0, 1, 0], [0, 0, 0, 1, 0])
    assert checks.b1_problems(BRAID["points"], 6, good, [3]) == []
    for wrong in (_eigen([0, 2, 0, 1, 0], [0, 0, 0, 1, 0]),   # conjugation
                  _eigen([1, 1, 0, 1, 1], [1, 0, 0, 1, 0]),   # vanishing at k=1
                  _eigen([0, 1, 1, 1, 0], [0, 0, 0, 1, 0]),   # vanishing at k=3
                  _eigen([0, 0, 0, 0, 0], [0, 0, 0, 0, 0])):  # net bound at k=2, 4
        assert checks.b1_problems(BRAID["points"], 6, wrong, [3])


def test_subset_failing_integrality_is_rejected():
    a5 = inputs.section_input("A5", inputs.braid_hyperplanes(5))
    assert checks.residue_verdict(a5["points"], 15, 5, range(5)) == "fails"
    assert workloads._residue_problems(a5, 15, {5: (list(range(5)), "avoids_positive")})
    assert workloads._residue_problems(a5, 15, {5: None}) == []
    # A missed subset: the braid arrangement has one at k=1.
    assert checks.residue_verdict(BRAID["points"], 6, 1, [0]) != "fails"
    assert workloads._residue_problems(BRAID, 6, {1: None})
    assert workloads._residue_problems(BRAID, 6, {1: ([0], "avoids_positive")}) == []


def test_net_with_a_crossing_double_point_is_rejected():
    assert checks.net_violations(BRAID["points"], BRAID_NET, 3) == []
    six = inputs.six_lines()
    assert checks.net_violations(six["points"], [0, 0, 1, 2, 2, 1], 3)
    assert checks.hides_false_net(six["points"], 6)
    assert not checks.hides_false_net(BRAID["points"], 6)
    assert checks.enumerate_nets(BRAID["points"], 6, 3) == [tuple(BRAID_NET)]


def test_realization_with_a_repeated_entry_is_rejected():
    spec = inputs.cubic_dual([t for t in range(-6, 7) if t], 13)
    moduli, vector = spec["realization"]
    triples = checks.multiple_points(spec["points"])
    assert checks.histogram(spec["points"]).keys() == {2, 3}
    assert checks.realization_problems(triples, vector, moduli) == []
    repeated = list(vector)
    repeated[1] = repeated[0]
    assert checks.realization_problems(triples, repeated, moduli)
    shifted = [((x + 1) % 13,) for (x,) in vector]
    assert checks.realization_problems(triples, shifted, moduli)


def test_transformed_copy_keeps_the_incidence():
    import random
    base = inputs.hesse()
    copy = inputs.transformed_copy(base, random.Random(0))
    assert checks.histogram(copy["points"]) == checks.histogram(base["points"]) \
        == {2: 12, 4: 9}

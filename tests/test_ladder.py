"""Replay of the scaling ladder pinned in ``golden/ladder.json``.

Each member of ``helpers.LADDER`` (Ceva(3..6), A(1..6,1,3) and the generic
sections of A_4..A_6 at seed 0) must give the recorded d, field order,
multiplicity histogram, open k (where both values of
``milnor.precheck_vanishing`` hold) and nonzero cokernel pairs, with
``milnor.cokernel_dims`` taken at every k.  ``report.analyze`` must give the
b1 vector those cokernels make: b1(k) = coker(k) + coker(d - k).  The file
was written before the jet route stopped computing the k the vanishing
criterion settles, so a criterion that settles an open k fails here.
"""

import json
import os

import pytest

from helpers import LADDER, ladder_member, ladder_record
from milfib.report import analyze

with open(os.path.join(os.path.dirname(__file__), "golden", "ladder.json"),
          encoding="utf-8") as fh:
    RECORDED = json.load(fh)


def test_the_file_records_every_member():
    assert sorted(RECORDED) == sorted(LADDER)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_member_replays_its_cokernels_and_b1(name):
    arr = ladder_member(name)
    assert ladder_record(arr) == RECORDED[name]
    d, cokernels = RECORDED[name]["d"], RECORDED[name]["cokernels"]

    def coker(k):
        return cokernels.get(str(k), [0, 0])[1]

    assert [r.b1 for r in analyze(arr).eigen] == \
        [coker(k) + coker(d - k) for k in range(1, d)]

"""The stage golden: every analysis stage and compiler pass counts the same.

``tests/golden/stage_counters.json`` was frozen by
``python -m tests.stage_golden --update`` while the compiler passes and
the §4 stages still had separate runners and trace types.  The shared
stage runner must reproduce every record: the stable analysis trace of
each canned program (no cache, cold and warm), and each PGO round's
counters (names and order), hints and savings, plus the final assembly.
"""

from __future__ import annotations

import json

import pytest

from repro.lang.programs import REL_PROGRAMS
from repro.machine.programs import PROGRAMS

from tests.stage_golden import (
    GOLDEN_PATH,
    PGO_LEVELS,
    analysis_traces,
    pgo_record,
)

FROZEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_program():
    assert sorted(FROZEN["analysis"]) == sorted(PROGRAMS)
    assert sorted(FROZEN["pgo"]) == sorted(REL_PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_analysis_traces_replay(name):
    assert analysis_traces(name) == FROZEN["analysis"][name]


@pytest.mark.parametrize("level", PGO_LEVELS)
@pytest.mark.parametrize("name", sorted(REL_PROGRAMS))
def test_pgo_rounds_replay(name, level):
    assert pgo_record(name, level) == FROZEN["pgo"][name][f"O{level}"]

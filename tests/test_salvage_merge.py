"""Salvage merges read strictly first, with the salvage-only fold's output.

``tree_reduce(..., salvage=True)`` parses each input strictly and sends
a file through the salvaging reader only when the strict parser rejects
it or it declares ``runs == 0``.  The oracle below is the salvage-only
fold: the header precheck, then every file through
``salvage_gmon_bytes`` + ``add_profile``.  Mixed fleets of corrupt-corpus
mutants, clean files and a zero-runs file must merge to identical gmon
bytes, warnings and runs — or fail with the identical error.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.fleet import ProfileAccumulator, precheck_headers, tree_reduce
from repro.gmon import dumps_gmon, parse_gmon, salvage_gmon_bytes

from tests.corrupt_corpus import mutants, valid_blob


def salvage_only_fold(paths, on_incompatible):
    """Every input through the salvaging reader (the pre-strict-first fold)."""
    paths, skip_warnings = precheck_headers(
        paths, on_incompatible=on_incompatible, salvage=True
    )
    acc = ProfileAccumulator()
    for path in paths:
        with open(path, "rb") as f:
            data, _report = salvage_gmon_bytes(f.read(), source=path)
        acc.add_profile(data, source=path)
    data = acc.result()
    data.warnings.extend(skip_warnings)
    return data


def outcome(merge):
    """``(gmon bytes, warnings, runs)``, or the error a merge raised."""
    try:
        data = merge()
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return dumps_gmon(data), data.warnings, data.runs


@pytest.mark.parametrize("program", ["fib", "dispatch"])
@pytest.mark.parametrize("on_incompatible", ["error", "skip"])
def test_strict_first_matches_salvage_only_fold(
    tmp_path, program, on_incompatible
):
    blob = valid_blob(program)
    zero_runs = parse_gmon(blob).copy()
    zero_runs.runs = 0
    base = []
    for name, body in (("clean_a", blob),
                       ("clean_b", valid_blob(program, cycles_per_tick=25)),
                       ("zero_runs", dumps_gmon(zero_runs))):
        path = tmp_path / f"{name}.gmon"
        path.write_bytes(body)
        base.append(str(path))
    mutant_path = tmp_path / "mutant.gmon"
    checked = 0
    for i, (tag, _truncated, mutated) in enumerate(
        mutants(blob, flips=60, stride=5)
    ):
        mutant_path.write_bytes(mutated)
        fleet = list(base)
        fleet.insert(i % (len(base) + 1), str(mutant_path))
        expected = outcome(lambda: salvage_only_fold(fleet, on_incompatible))
        got = outcome(lambda: tree_reduce(
            fleet, salvage=True, on_incompatible=on_incompatible
        ))
        assert got == expected, tag
        checked += 1
    assert checked > 100

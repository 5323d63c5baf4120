"""The shared perf-trajectory timer and the committed BENCH_*.json files.

Every ``emit_bench`` suite times its variants through
``benchmarks/timing.py``.  These tests pin the timer's round order and
statistics, and check that each committed report opens with the shared
header, writes every timing and ratio column as ``{median, q1, q3, n}``
and records that its identity contract held.
"""

import gc
import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e.harness import quartiles
from benchmarks.emit_bench import SUITES
from benchmarks.timing import header, ratio, rounds, summary

ROOT = Path(__file__).resolve().parents[1]
REPORTS = sorted(ROOT.glob("BENCH_*.json"))

#: Keys whose value is a timing or a ratio of timings.
TIMED = re.compile(r"(seconds|_ms|speedup.*|overhead|cost_factor)$")
#: Keys whose value records an identity contract.
FLAGS = {"byte_identical", "identical", "deterministic", "wire_identical"}


def test_rounds_rotate_which_variant_runs_first():
    calls = []
    variants = {name: (lambda name=name: calls.append(name)) for name in "abc"}
    seconds, _ = rounds(variants, 6)
    assert calls == list("abc" "bca" "cab" "abc" "bca" "cab")
    assert {name: len(s) for name, s in seconds.items()} == {
        "a": 6, "b": 6, "c": 6}


def test_setup_runs_once_per_round_and_feeds_every_variant():
    calls = []
    tokens = iter(range(3))

    def setup():
        calls.append("setup")
        return next(tokens)

    def variant(name):
        def run(token):
            calls.append((name, token))
            return token
        return run

    _, results = rounds({"x": variant("x"), "y": variant("y")}, 3,
                        setup=setup)
    assert calls == [
        "setup", ("x", 0), ("y", 0),
        "setup", ("y", 1), ("x", 1),
        "setup", ("x", 2), ("y", 2),
    ]
    assert results == {"x": 2, "y": 2}


def test_collector_is_off_only_while_a_variant_runs():
    seen = []
    variants = {name: (lambda _: seen.append(gc.isenabled())) for name in "ab"}
    rounds(variants, 2, setup=lambda: seen.append(gc.isenabled()))
    assert seen == [True, False, False, True, False, False]
    assert gc.isenabled()
    gc.disable()
    try:
        rounds(variants, 1, setup=lambda: None)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("values", [[0.25], [1.0, 2.0, 4.0, 8.0]],
                         ids=["one", "four"])
def test_summary_matches_harness_quartiles(values):
    q1, median, q3 = quartiles(values)
    expected = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    assert summary(values) == expected
    ones = [1.0] * len(values)
    assert ratio({"a": values, "b": ones}, "a", "b") == expected


def test_every_suite_has_a_committed_report():
    assert [p.name for p in REPORTS] == sorted(
        out for _, out, _, _ in SUITES.values())


def walk(node):
    """Every ``(key, value)`` pair in a JSON document, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key, value
            yield from walk(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk(value)


@pytest.mark.parametrize("path", REPORTS, ids=lambda p: p.name)
def test_committed_report_shape(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    shared = header(report["benchmark"], False, report["repeats"])
    assert list(report)[:4] == list(shared)
    assert report["mode"] == "full"
    assert set(report["host"]) == set(shared["host"])
    for key, value in walk(report):
        if TIMED.search(key):
            assert isinstance(value, dict), key
            assert set(value) == {"median", "q1", "q3", "n"}, key
            assert value["q1"] <= value["median"] <= value["q3"], key
            assert value["n"] == report["repeats"] >= 9, key
        if key in FLAGS:
            assert value is True, key
    assert report.get("identity_gate", {}).get("mismatches", 0) == 0

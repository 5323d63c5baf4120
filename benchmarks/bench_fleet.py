"""T-FLEET — fleet-scale merging through the streaming driver.

The paper merged a handful of runs; the production target merges
thousands of ``gmon.out`` files per program.  This benchmark times the
:mod:`repro.fleet` merge driver on a synthetic fleet and asserts the
contract the subsystem lives by: driver output written as ``gmon.sum``
is **byte-identical** to the flat
``merge_profiles([read_gmon(p) ...])`` fold.

``benchmarks/emit_bench.py`` is the standalone runner that measures
the full 10/100/1000 trajectory and writes BENCH_fleet.json.
"""

import functools

import pytest

from repro.core import merge_profiles
from repro.fleet import ProfileAccumulator, tree_reduce
from repro.gmon import dumps_gmon, read_gmon

from benchmarks.emit_bench import build_corpus

FLEET_SIZE = 80


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet_bench")
    return build_corpus(root, FLEET_SIZE, nbuckets=400, narcs=80,
                        arc_sites=120)


def test_driver_merge_throughput(benchmark, fleet):
    merged = benchmark(tree_reduce, fleet)
    assert merged.runs == FLEET_SIZE


def test_streaming_accumulator_throughput(benchmark, fleet):
    def stream():
        acc = ProfileAccumulator()
        for path in fleet:
            acc.add(path)
        return acc.result()

    merged = benchmark(stream)
    assert merged.runs == FLEET_SIZE


def test_batch_merge_profiles_matches_driver(fleet):
    """The one-shot merge_profiles is the same algebra."""
    batch = merge_profiles([read_gmon(p) for p in fleet])
    assert dumps_gmon(batch) == dumps_gmon(tree_reduce(fleet))


def test_fold_in_any_grouping_is_byte_identical(fleet):
    """Associativity at benchmark scale: 8-chunk tree == flat fold."""
    chunk = FLEET_SIZE // 8
    groups = [fleet[i:i + chunk] for i in range(0, FLEET_SIZE, chunk)]
    tree = functools.reduce(
        lambda a, b: merge_profiles([a, b]),
        (merge_profiles([read_gmon(p) for p in g]) for g in groups),
    )
    assert dumps_gmon(tree) == dumps_gmon(tree_reduce(fleet))

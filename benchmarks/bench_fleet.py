"""T-FLEET — fleet-scale merging through the streaming driver.

The paper merged a handful of runs; the production target merges
thousands of ``gmon.out`` files per program.  For fleets of 10/100/
1000 synthetic gmon files (one shared histogram layout, randomized
counts and arcs) :func:`run_fleet` times the :mod:`repro.fleet` merge
driver (``tree_reduce``) producing ``gmon.sum`` and asserts the
contract the subsystem lives by: the driver's output is
**byte-identical** to the flat ``merge_profiles([read_gmon(p) ...])``
fold, computed untimed.  ``python -m benchmarks.emit_bench`` writes
BENCH_fleet.json and exits 2 if it is not; ``--quick`` shrinks the
fleets (10/50 files, smaller histograms) for CI smoke runs.
"""

import functools
import random
import tempfile
from pathlib import Path

import pytest

from repro.core import Histogram, ProfileData, RawArc, merge_profiles
from repro.fleet import ProfileAccumulator, tree_reduce
from repro.gmon import dumps_gmon, read_gmon, write_gmon

from benchmarks.timing import header, rounds, summary

#: Synthetic corpus shape: dense enough that bucket summing and arc
#: condensing both matter, small enough that a 1000-file fleet builds
#: in seconds.
FULL = {"sizes": (10, 100, 1000), "nbuckets": 2000, "narcs": 400,
        "arc_sites": 600, "repeats": 9}
QUICK = {"sizes": (10, 50), "nbuckets": 200, "narcs": 40,
         "arc_sites": 60, "repeats": 3}


def build_corpus(root: Path, n: int, nbuckets: int, narcs: int,
                 arc_sites: int, seed: int = 1234) -> list[str]:
    """Write ``n`` synthetic, mutually-compatible gmon files."""
    rng = random.Random(seed)
    high = nbuckets * 4
    sites = [
        (rng.randrange(0, high, 4), rng.randrange(0, high, 4))
        for _ in range(arc_sites)
    ]
    paths = []
    for i in range(n):
        counts = [rng.randrange(4) for _ in range(nbuckets)]
        arcs = [
            RawArc(*rng.choice(sites), rng.randrange(1, 10))
            for _ in range(narcs)
        ]
        data = ProfileData(
            Histogram(0, high, counts, 60), arcs, comment=f"synth-{i:04d}"
        )
        path = root / f"gmon_{i:04d}.out"
        write_gmon(data, path)
        paths.append(str(path))
    return paths


def run_fleet(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    rows = []
    identical_everywhere = True
    with tempfile.TemporaryDirectory(prefix="bench_fleet_") as tmp:
        for n in cfg["sizes"]:
            root = Path(tmp) / f"fleet_{n}"
            root.mkdir()
            paths = build_corpus(
                root, n, cfg["nbuckets"], cfg["narcs"], cfg["arc_sites"]
            )
            seconds, results = rounds(
                {"driver": lambda: tree_reduce(paths)}, cfg["repeats"]
            )
            reference = merge_profiles([read_gmon(p) for p in paths])
            identical = (
                dumps_gmon(results["driver"]) == dumps_gmon(reference)
            )
            identical_everywhere &= identical
            driver = summary(seconds["driver"])
            row = {
                "files": n,
                "driver_seconds": driver,
                "driver_profiles_per_sec": round(n / driver["median"], 1),
                "byte_identical": identical,
            }
            rows.append(row)
            print(
                f"  {n:>5} files: driver {row['driver_profiles_per_sec']:>9} p/s"
                f"  identical={identical}"
            )
    return {
        **header("T-FLEET merge throughput", quick, cfg["repeats"]),
        "corpus": {
            "nbuckets": cfg["nbuckets"],
            "narcs": cfg["narcs"],
            "arc_sites": cfg["arc_sites"],
            "seed": 1234,
        },
        "rows": rows,
    }, identical_everywhere


# --------------------------------------------------------------------------
# pytest-benchmark entries + the identity contract at benchmark scale.
# --------------------------------------------------------------------------

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

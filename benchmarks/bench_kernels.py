"""T-KERN runner: each kernel's production path against its reference.

Times the four bulk kernels of :mod:`repro.core.kernels` — bucket
folding, arc condensing, span apportionment, and §4 propagation — at
fleet scale (1000 wire inputs for the fold kernels, a 64k-bucket
layout for apportionment).  Each kernel has one production
implementation on this host (the numpy folds where numpy imports, the
prefix-sum apportionment, the scalar plan solve); the folds and
apportionment also keep a python reference, and propagation has only
its one solver, so its row carries a single timing.

Two numbers matter:

* **speedup**: production vs the reference, per kernel;
* **identical**: each production result compared *exactly* with the
  reference (integer lists, arc dicts, float dicts), plus one
  end-to-end check that a fleet merged by the production
  :class:`~repro.fleet.ProfileAccumulator` re-serializes to the same
  ``gmon`` bytes as the independent ``core.merge_profiles`` fold.  Any
  mismatch makes ``emit_bench`` exit 2.

Usage::

    python -m benchmarks.emit_bench --suite kernels [--quick]
"""

from __future__ import annotations

import random
import struct

from repro.core import Symbol, SymbolTable, merge_profiles
from repro.core import kernels
from repro.core.callgraph import Arc, CallGraph
from repro.core.cycles import number_graph
from repro.core.kernels import prop as kprop
from repro.core.kernels.arcs import ArcTable
from repro.core.kernels.buckets import BucketAccumulator
from repro.core.kernels.spans import apportion, apportion_python, build_spans
from repro.fleet import ProfileAccumulator
from repro.gmon import dumps_gmon, parse_gmon

from benchmarks.timing import header, ratio, rounds, spread, summary

FULL = {
    "inputs": 1000, "nbuckets": 2000, "narcs": 400, "arc_sites": 600,
    "ap_buckets": 65536, "ap_symbols": 600, "ap_inputs": 20,
    "prop_callers": 1000, "prop_hubs": 30, "prop_leaves": 200,
    "prop_solves": 50,
    "repeats": 9,
}
QUICK = {
    "inputs": 60, "nbuckets": 256, "narcs": 40, "arc_sites": 60,
    "ap_buckets": 4096, "ap_symbols": 64, "ap_inputs": 4,
    "prop_callers": 60, "prop_hubs": 4, "prop_leaves": 10,
    "prop_solves": 5,
    "repeats": 3,
}

SEED = 20240817


def _row(kernel: str, workload: dict, production: str, reference,
         candidate, repeats: int) -> tuple[dict, bool]:
    """Time both paths in rounds and assemble one report row; equality
    of the last round's results is exact, never approximate."""
    seconds, results = rounds(
        {"reference": reference, "production": candidate}, repeats
    )
    identical = results["production"] == results["reference"]
    row = {
        "kernel": kernel,
        "workload": workload,
        "production": production,
        "reference_seconds": summary(seconds["reference"]),
        "production_seconds": summary(seconds["production"]),
        "speedup": ratio(seconds, "reference", "production"),
        "identical": identical,
    }
    return row, identical


# -- kernel workloads --------------------------------------------------------


def bench_bucket_fold(cfg: dict) -> tuple[dict, bool]:
    rng = random.Random(SEED)
    nbuckets, inputs = cfg["nbuckets"], cfg["inputs"]
    blobs = [
        struct.pack(
            f"<{nbuckets}I",
            *(rng.randrange(4) for _ in range(nbuckets)),
        )
        for _ in range(inputs)
    ]

    def fold(make):
        acc = make()
        for blob in blobs:
            acc.fold_blob(blob)
        return acc.to_list()

    return _row(
        "bucket_fold",
        {"inputs": inputs, "nbuckets": nbuckets},
        type(kernels.bucket_accumulator()).__name__,
        lambda: fold(BucketAccumulator),
        lambda: fold(kernels.bucket_accumulator),
        cfg["repeats"],
    )


def bench_arc_fold(cfg: dict) -> tuple[dict, bool]:
    rng = random.Random(SEED + 1)
    high = cfg["nbuckets"] * 4
    sites = [
        (rng.randrange(0, high, 4), rng.randrange(0, high, 4))
        for _ in range(cfg["arc_sites"])
    ]
    blobs = []
    for _ in range(cfg["inputs"]):
        blobs.append(
            b"".join(
                struct.pack(
                    "<QQI", *rng.choice(sites), rng.randrange(1, 10)
                )
                for _ in range(cfg["narcs"])
            )
        )

    def fold(make):
        table = make()
        for blob in blobs:
            table.fold_blob(blob)
        return sorted(table.as_dict().items())

    return _row(
        "arc_fold",
        {"inputs": cfg["inputs"], "records_per_input": cfg["narcs"],
         "distinct_sites": cfg["arc_sites"]},
        type(kernels.arc_table()).__name__,
        lambda: fold(ArcTable),
        lambda: fold(kernels.arc_table),
        cfg["repeats"],
    )


def bench_apportion(cfg: dict) -> tuple[dict, bool]:
    rng = random.Random(SEED + 2)
    nbuckets, nsyms = cfg["ap_buckets"], cfg["ap_symbols"]
    high = nbuckets * 4
    # symbols of irregular width covering the range: plenty of
    # fractional edges, long interior runs
    bounds = sorted(rng.sample(range(4, high, 4), nsyms - 1))
    edges = [0] + bounds + [high]
    symbols = SymbolTable(
        Symbol(edges[i], f"f{i}", edges[i + 1]) for i in range(nsyms)
    )
    spans = build_spans(0, high, nbuckets, symbols)
    vectors = [
        [rng.randrange(8) for _ in range(nbuckets)]
        for _ in range(cfg["ap_inputs"])
    ]
    sec_per_tick = 1.0 / 100.0

    def evaluate(fn):
        out = []
        for counts in vectors:
            out.append(sorted(fn(spans, counts, sec_per_tick).items()))
        return out

    return _row(
        "apportion",
        {"nbuckets": nbuckets, "symbols": nsyms,
         "inputs": cfg["ap_inputs"]},
        "prefix_sum",
        lambda: evaluate(apportion_python),
        lambda: evaluate(apportion),
        cfg["repeats"],
    )


def bench_propagate(cfg: dict) -> dict:
    # The gprof shape that makes propagation expensive: a few hot
    # shared routines (hubs) called from very many sites, so each hub
    # representative pushes time up thousands of incoming arcs.
    rng = random.Random(SEED + 3)
    graph = CallGraph()
    callers = [f"c{i}" for i in range(cfg["prop_callers"])]
    hubs = [f"hub{i}" for i in range(cfg["prop_hubs"])]
    leaves = [f"leaf{i}" for i in range(cfg["prop_leaves"])]
    for caller in callers:
        for hub in hubs:
            graph.add_arc(Arc(caller, hub, rng.randrange(1, 50)))
    for leaf in leaves:
        for hub in rng.sample(hubs, min(6, len(hubs))):
            graph.add_arc(Arc(hub, leaf, rng.randrange(1, 20)))
    numbered = number_graph(graph)
    plan = kprop.build_plan(numbered)
    self_times = {
        name: rng.random() * 5.0
        for name in callers + hubs + leaves
    }
    nsolves = cfg["prop_solves"]

    def solve():
        for _ in range(nsolves):
            kprop.solve(plan, self_times)

    seconds, _ = rounds({"production": solve}, cfg["repeats"])
    return {
        "kernel": "propagate",
        "workload": {"routines": len(plan.routines),
                     "arcs": len(plan.arc_count), "solves": nsolves},
        "production": "scalar",
        "production_seconds": summary(seconds["production"]),
    }


def check_end_to_end_bytes(cfg: dict) -> bool:
    """Production-merged fleet bytes must equal ``merge_profiles``'."""
    rng = random.Random(SEED + 4)
    nbuckets = cfg["nbuckets"]
    high = nbuckets * 4
    from repro.core import Histogram, ProfileData, RawArc

    blobs = []
    for i in range(min(cfg["inputs"], 100)):
        counts = [rng.randrange(4) for _ in range(nbuckets)]
        arcs = [
            RawArc(rng.randrange(0, high, 4), rng.randrange(0, high, 4),
                   rng.randrange(1, 10))
            for _ in range(cfg["narcs"])
        ]
        blobs.append(
            dumps_gmon(ProfileData(Histogram(0, high, counts, 60), arcs))
        )
    acc = ProfileAccumulator()
    for blob in blobs:
        acc.add(blob)
    reference = merge_profiles([parse_gmon(b) for b in blobs])
    return dumps_gmon(acc.result()) == dumps_gmon(reference)


def run_kernels(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    rows = []
    identical_everywhere = True
    for bench in (bench_bucket_fold, bench_arc_fold, bench_apportion):
        row, identical = bench(cfg)
        identical_everywhere &= identical
        rows.append(row)
        print(
            f"  {row['kernel']:<12} reference "
            f"{row['reference_seconds']['median'] * 1000:8.1f} ms"
            f"  {row['production']} {spread(row['speedup'])}"
            f"  identical={identical}"
        )
    row = bench_propagate(cfg)
    rows.append(row)
    print(
        f"  {row['kernel']:<12} {row['production']} "
        f"{row['production_seconds']['median'] * 1000:8.1f} ms"
    )
    wire_identical = check_end_to_end_bytes(cfg)
    identical_everywhere &= wire_identical
    print(f"  end-to-end merged gmon bytes identical={wire_identical}")
    return {
        **header("T-KERN bulk kernels, production vs reference", quick,
                 cfg["repeats"]),
        "seed": SEED,
        "rows": rows,
        "wire_identical": wire_identical,
    }, identical_everywhere

"""Measure one perf-trajectory suite and write its BENCH_*.json.

Each suite lives in its own ``bench_*.py`` module, whose runner times
the suite's workloads through :mod:`benchmarks.timing` and checks its
identity contract in the same runs: the fleet driver against the flat
``merge_profiles`` fold, the fast VM engine against the reference, a
cached analysis against an uncached one, and so on.  The driver writes
the report and exits with status 2 if the contract failed (the CI
``bench-smoke``, ``chaos-smoke`` and ``smp-smoke`` jobs lean on this).

Usage::

    python -m benchmarks.emit_bench [--suite NAME] [--quick] [--out FILE]

``--quick`` shrinks every corpus for CI smoke runs; the committed
``BENCH_*.json`` files come from full runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

#: suite name -> (banner, default output file, runner, mismatch message).
#: Each runner, named ``"module:function"``, takes the quick flag and
#: returns ``(report_dict, contract_held)``; the driver turns a False
#: flag into exit status 2 — the CI identity gate.
SUITES = {
    "fleet": (
        "T-FLEET",
        "BENCH_fleet.json",
        "benchmarks.bench_fleet:run_fleet",
        "driver output differs from the flat merge_profiles fold",
    ),
    "vm": (
        "T-VM",
        "BENCH_vm.json",
        "benchmarks.bench_vm:run_vm",
        "fast-engine gmon differs from reference engine",
    ),
    "pipeline": (
        "T-PIPE",
        "BENCH_pipeline.json",
        "benchmarks.bench_pipeline:run_pipeline",
        "cached analysis listing differs from uncached",
    ),
    "check": (
        "T-FLOW",
        "BENCH_check.json",
        "benchmarks.bench_check:run_check",
        "flow report or predicted profile differs across runs or "
        "cache replay",
    ),
    "serve": (
        "T-SERVE",
        "BENCH_serve.json",
        "benchmarks.bench_serve:run_serve",
        "recovered merged profile differs from the offline merge of "
        "the uploaded inputs",
    ),
    "smp": (
        "T-SMP",
        "BENCH_smp.json",
        "benchmarks.bench_smp:run_smp",
        "merged SMP profile depends on the CPU count, schedule, or "
        "sharding layout",
    ),
    "kernels": (
        "T-KERN",
        "BENCH_kernels.json",
        "benchmarks.bench_kernels:run_kernels",
        "a production kernel disagrees with its reference (per-kernel "
        "results, or merged gmon bytes differ from merge_profiles)",
    ),
    "pgo": (
        "T-PGO",
        "BENCH_pgo.json",
        "benchmarks.bench_pgo:run_pgo_suite",
        "PGO gate violated: behaviour diverged, assembly is not "
        "byte-deterministic, or fewer than 3 programs got faster",
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emit_bench",
        description="measure a perf-trajectory suite, write its BENCH_*.json",
    )
    parser.add_argument("--suite", choices=sorted(SUITES), default="fleet",
                        help="which trajectory to measure (default: fleet)")
    parser.add_argument("--quick", action="store_true",
                        help="small corpora for CI smoke runs")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="where to write the JSON report "
                             "(default: the suite's BENCH_*.json)")
    opts = parser.parse_args(argv)
    banner, default_out, runner, mismatch = SUITES[opts.suite]
    module, _, function = runner.partition(":")
    out = opts.out or default_out
    print(f"== {banner} ({'quick' if opts.quick else 'full'}) ==")
    report, identical = getattr(importlib.import_module(module), function)(
        opts.quick
    )
    Path(out).write_text(json.dumps(report, indent=2) + "\n",
                         encoding="utf-8")
    print(f"report written to {out}")
    if not identical:
        print(f"emit_bench: FATAL: {mismatch}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

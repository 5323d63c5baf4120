"""repro.fleet — fleet-scale profile aggregation.

The paper combined "the profile data for several executions" so that
short-running routines accumulate visible time; the ROADMAP's
production system needs the same algebra over thousands of ``gmon.out``
files per program.  This package is that scale jump, in three layers:

* :mod:`repro.fleet.accumulator` — :class:`ProfileAccumulator`, a
  streaming single-table merge: one bucket array, one arc table,
  ``add()`` per input, O(total arcs) overall and no per-input object
  materialization when fed paths;
* :mod:`repro.fleet.headers` — header peeking and layout digests, so
  incompatible files are rejected (or skipped) from a few hundred bytes
  before any real parsing, with a structured
  :class:`~repro.errors.MergeError`; its stat-validated
  :class:`HeaderCache` serves callers that rescan the same files;
* :mod:`repro.fleet.reduce` — the merge driver: expand the inputs,
  precheck their headers, then stream every file, in input order,
  through one accumulator.  Output is byte-identical to the sequential
  ``merge_profiles([read_gmon(p) ...])`` fold.

The ``repro-merge`` CLI and ``repro-gprof --sum`` sit on top;
``benchmarks/emit_bench.py`` tracks the throughput trajectory in
``BENCH_fleet.json``.
"""

from repro.fleet.accumulator import ProfileAccumulator, empty_profile_like
from repro.fleet.headers import HeaderCache, HeaderKey
from repro.fleet.reduce import (
    expand_inputs,
    precheck_headers,
    tree_reduce,
    write_sum,
)

__all__ = [
    "HeaderCache",
    "HeaderKey",
    "ProfileAccumulator",
    "empty_profile_like",
    "expand_inputs",
    "precheck_headers",
    "tree_reduce",
    "write_sum",
]

"""Profiling real Python programs with the gprof pipeline.

The VM substrate demonstrates the paper's machinery on machine-like
programs; this package makes the library useful on actual Python code.
``sys.setprofile`` plays the monitoring routine, SIGPROF (or a sampler
thread, or exact event timing) plays the clock-tick histogram, and a
synthetic address space makes the data indistinguishable from machine
profiles — so analysis, reporting, merging, and the gmon format all
work unchanged.
"""

from repro.pyprof.addresses import FUNC_SIZE, AddressSpace
from repro.pyprof.annotate import format_annotated_source, hottest_lines
from repro.pyprof.profiler import EXACT_PROFRATE, Profiler, profile_call
from repro.pyprof.sampler import Sampler, SampleStore
from repro.pyprof.staticarcs import static_arcs
from repro.pyprof.tracer import TOPLEVEL, TraceCollector

__all__ = [
    "AddressSpace",
    "EXACT_PROFRATE",
    "FUNC_SIZE",
    "Profiler",
    "SampleStore",
    "Sampler",
    "TOPLEVEL",
    "TraceCollector",
    "format_annotated_source",
    "hottest_lines",
    "profile_call",
    "static_arcs",
]

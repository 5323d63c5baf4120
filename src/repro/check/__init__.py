"""repro.check — static analysis and profile-consistency linting.

The "gprof-lint" subsystem.  §4 of the paper already crawls the
executable image for statically-apparent calls; this package grows that
single heuristic into a proper static-analysis layer:

* :mod:`repro.check.cfg` — per-routine basic-block control-flow graphs
  recovered from the VM text segment;
* :mod:`repro.check.dominators` — dominator trees (Cooper–Harvey–
  Kennedy) and natural loops with nesting depths over those CFGs;
* :mod:`repro.check.absint` — a worklist abstract interpreter over the
  ISA: interprocedural operand-stack balance plus an interval domain
  for constant branches and unreachable code;
* :mod:`repro.check.staticprofile` — the Wu/Larus-style static
  execution-frequency estimate: the *predicted* profile;
* :mod:`repro.check.flow` — the GP6xx static battery orchestrating the
  four modules above (``repro-check --flow``);
* :mod:`repro.check.expect` — the predicted profile confronted with a
  measured gmon file (``repro-gprof --expect``), plus §6 sampling
  confidence for the flat profile;
* :mod:`repro.check.passes` — analysis passes over the CFGs and the
  static call graph (unreachable code, dead routines, MCOUNT
  instrumentation verification, indirect-call under-approximation,
  static-vs-dynamic cycle agreement);
* :mod:`repro.check.consistency` — validation of a ``gmon`` profile
  against the executable that allegedly produced it;
* :mod:`repro.check.salvage` — GP4xx diagnostics translating a
  :class:`~repro.resilience.SalvageReport` (what the salvaging gmon
  reader dropped or repaired) into check findings;
* :mod:`repro.check.pipelinelint` — GP5xx diagnostics from running the
  staged analysis pipeline with tracing on and checking its stage
  output invariants (topological descent, time conservation);
* :mod:`repro.check.diagnostics` — the shared :class:`Diagnostic`
  record (stable ``GPnnn`` codes) with text and JSON renderers.

Use :func:`check_executable` for the whole battery, or call individual
passes for surgical use.  The ``repro-check`` CLI
(:mod:`repro.cli.check_cli`) and ``repro-gprof --lint`` are thin
wrappers over this module.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.check.consistency import consistency_passes
from repro.check.diagnostics import (
    CODES,
    CheckReport,
    Diagnostic,
    Severity,
    make,
)
from repro.check.expect import expect_passes, sampling_confidence
from repro.check.flow import FlowAnalysis, analyze_flow, flow_passes
from repro.check.passes import profile_passes, static_passes
from repro.check.pipelinelint import pipeline_passes
from repro.check.salvage import degradation_passes, salvage_passes
from repro.core.profiledata import ProfileData
from repro.machine.executable import Executable

__all__ = [
    "CODES",
    "CheckReport",
    "Diagnostic",
    "FlowAnalysis",
    "Severity",
    "analyze_flow",
    "check_executable",
    "consistency_passes",
    "degradation_passes",
    "expect_passes",
    "flow_passes",
    "make",
    "pipeline_passes",
    "profile_passes",
    "salvage_passes",
    "sampling_confidence",
    "static_passes",
]


def check_executable(
    exe: Executable,
    profiles: Sequence[ProfileData] = (),
    gmon_labels: Iterable[str] = (),
    flow: bool = False,
    flow_analysis: FlowAnalysis | None = None,
    options=None,
    cache=None,
) -> CheckReport:
    """Run every applicable check over ``exe`` (and optional profiles).

    Arguments:
        exe: the executable image to lint.
        profiles: profile data sets to validate against the image; each
            gets the full consistency battery plus the static-vs-dynamic
            cross-checks.
        gmon_labels: display labels for the profiles (file names in the
            CLI); padded with indices when shorter than ``profiles``.
        flow: also run the dataflow battery (GP601–GP605) and, for each
            profile, the static-vs-measured expectation checks
            (GP610–GP612).
        flow_analysis: an already-computed :class:`FlowAnalysis` to
            reuse (implies ``flow``); :meth:`ProfileSession.lint`
            passes its cache-memoized one.
        options: the :class:`~repro.core.AnalysisOptions` the GP5xx
            pipeline lint analyzes with (the defaults when None);
            ``repro-gprof --lint`` passes the listing's, so the lint
            checks the analysis it lists.
        cache: an :class:`~repro.pipeline.AnalysisCache` for the
            GP5xx pipeline lint's analysis; :meth:`ProfileSession.lint`
            passes its session cache, so the listing rendered after
            the lint replays that analysis.

    Returns a :class:`CheckReport` with deterministically-ordered
    diagnostics: executable-level findings first, then each profile's
    findings tagged with (and grouped by) its label.  A clean program
    yields an empty report.
    """
    labels = list(gmon_labels)
    while len(labels) < len(profiles):
        labels.append(f"profile[{len(labels)}]")
    diagnostics = static_passes(exe)
    if flow_analysis is not None:
        flow = True
    if flow:
        if flow_analysis is None:
            flow_analysis = analyze_flow(exe)
        diagnostics += flow_passes(exe, flow_analysis)
    symbols = exe.symbol_table() if profiles else None
    for label, data in zip(labels, profiles):
        per_profile = consistency_passes(exe, data)
        per_profile += profile_passes(exe, data)
        per_profile += pipeline_passes(symbols, data, options, cache=cache)
        if flow_analysis is not None:
            per_profile += expect_passes(exe, data, flow_analysis)
        diagnostics += [
            dataclasses.replace(d, source=label) for d in per_profile
        ]
    return CheckReport(exe.name, diagnostics, labels[: len(profiles)])

"""GP4xx: diagnostics for salvaged profile data.

The salvaging gmon reader (:mod:`repro.gmon` with ``mode="salvage"``)
records everything it dropped or repaired in a
:class:`~repro.resilience.SalvageReport`.  This pass translates that
report into the check subsystem's diagnostic currency, so ``repro-check
--salvage`` and CI gates can treat recovered-but-degraded profiles with
the same machinery as every other finding:

* ``GP401`` — nothing recovered at all (bad magic);
* ``GP402`` — histogram data dropped;
* ``GP403`` — arc records dropped;
* ``GP404`` — header/comment truncated, losing the profile body;
* ``GP405`` — anomaly repaired or tolerated without data loss;
* ``GP406`` — the file declared ``runs == 0`` (clamped, not hidden).

A drop's code comes from the file section the report says lost data,
never from the message's wording.
"""

from __future__ import annotations

from repro.check.diagnostics import Diagnostic, make
from repro.core.profiledata import ProfileData
from repro.gmon.format import RUNS_ZERO_WARNING
from repro.resilience.salvage import SalvageReport

#: The GP code for a drop, by the file section that lost data.
_DROP_CODES = {
    "comment": "GP404", "header": "GP404", "buckets": "GP402", "arcs": "GP403",
}


def salvage_passes(report: SalvageReport) -> list[Diagnostic]:
    """Map one salvage report to GP4xx diagnostics.

    A clean report (byte-perfect file) yields no diagnostics.  Drops
    are errors — data is missing; notes are warnings — data was
    recovered but the file was not healthy.
    """
    source = report.source or "<profile data>"
    if report.unsalvageable:
        return [
            make("GP401", f"{source}: {message}")
            for message in report.dropped
        ] or [make("GP401", f"{source}: nothing recovered")]
    diagnostics = [
        make(_DROP_CODES[section], f"{source}: {message}")
        for section, message in zip(report.dropped_sections, report.dropped)
    ]
    for message in report.notes:
        code = "GP406" if message == RUNS_ZERO_WARNING else "GP405"
        diagnostics.append(make(code, f"{source}: {message}"))
    return diagnostics


def degradation_passes(data: ProfileData) -> list[Diagnostic]:
    """GP4xx diagnostics for warnings carried on strict-read data.

    A strictly-parsed file can still be degraded (``runs == 0``).  Use
    this for data *not* read through salvage mode — salvaged data's
    warnings mirror its report, which :func:`salvage_passes` already
    covers.
    """
    diagnostics: list[Diagnostic] = []
    for message in data.warnings:
        code = "GP406" if RUNS_ZERO_WARNING in message or "runs == 0" in message else "GP405"
        diagnostics.append(make(code, message))
    return diagnostics

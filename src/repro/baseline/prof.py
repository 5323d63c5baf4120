"""A reproduction of ``prof(1)``, the profiler gprof was built to beat.

Per the paper's introduction and [Unix]: prof combines the PC-sample
histogram with *per-routine* call counts (it has no arcs — its
monitoring routine keeps one counter per routine) "to produce a table
of each function listing the number of times it was called, the time
spent in it, and the average time per call".

Running it beside gprof on the same :class:`ProfileData` shows the
paper's motivating failure: "as we partitioned operations across
several functions ... the time for an operation spread across the
several functions; and as the functions became more useful, they were
used from many places, so it wasn't always clear why a function was
being called as many times as it was."  prof can answer neither
question; the T-PROFVSGPROF benchmark quantifies the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiledata import ProfileData
from repro.core.symbols import SymbolTable


@dataclass(frozen=True)
class ProfRow:
    """One row of the prof listing.

    Attributes:
        name: routine name.
        percent: share of total sampled time spent *in* the routine.
        seconds: self seconds (prof knows no descendant time).
        calls: times the routine was called (all callers summed — prof
            cannot tell them apart).
        ms_per_call: average milliseconds per call, the "average time"
            statistic prof reports.
    """

    name: str
    percent: float
    seconds: float
    calls: int | None
    ms_per_call: float | None


def prof_analyze(data: ProfileData, symbols: SymbolTable) -> list[ProfRow]:
    """Produce the prof table: self time + call counts, nothing more.

    Arc records are collapsed to per-callee totals — exactly the
    information prof's simpler monitoring routine would have gathered —
    and the histogram is apportioned identically to gprof's, so any
    difference between the two tools' outputs is purely the call graph
    treatment, not the time basis.
    """
    self_times = data.histogram.time_for_symbols(symbols)
    calls: dict[str, int] = {}
    for arc in data.arcs:
        callee = symbols.find(arc.self_pc)
        if callee is not None:
            calls[callee.name] = calls.get(callee.name, 0) + arc.count
    total = sum(self_times.values())
    rows = []
    for name in set(self_times) | set(calls):
        seconds = self_times.get(name, 0.0)
        ncalls = calls.get(name)
        rows.append(
            ProfRow(
                name=name,
                percent=100.0 * seconds / total if total > 0 else 0.0,
                seconds=seconds,
                calls=ncalls,
                ms_per_call=(
                    1000.0 * seconds / ncalls if ncalls else None
                ),
            )
        )
    rows.sort(key=lambda r: (-r.seconds, -(r.calls or 0), r.name))
    return rows


def format_prof(rows: list[ProfRow]) -> str:
    """Render the classic prof table."""
    lines = [
        " %time   seconds    #call  ms/call  name",
    ]
    for r in rows:
        calls = str(r.calls) if r.calls is not None else ""
        ms = f"{r.ms_per_call:8.2f}" if r.ms_per_call is not None else " " * 8
        lines.append(
            f"{r.percent:6.1f} {r.seconds:9.2f} {calls:>8} {ms}  {r.name}"
        )
    return "\n".join(lines) + "\n"

"""Profile-consistency checking: could this gmon come from this image?

The ``gmon`` format (:mod:`repro.gmon.format`) deliberately stores raw
addresses only; nothing in the file ties it to a particular executable.
Pair the wrong files — or corrupt the right one — and the analysis
pipeline will happily produce a confident, wrong report.  These checks
validate the pairing using the invariants the data-gathering machinery
guarantees:

* every recorded call site (``from_pc``) is the address of a CALL or
  CALLI instruction — MCOUNT derives it from the frame's return address
  minus one instruction (§3.1), so anything else means corruption or a
  mismatched image.  ``from_pc == 0`` is the file format's spontaneous
  marker and is exempt;
* every recorded callee (``self_pc``) is the entry of a *profiled*
  routine — MCOUNT records its own address, and the assembler plants it
  in the prologue slot;
* a direct CALL's operand agrees with the callee the arc records;
* histogram bounds and mass stay inside the text segment;
* a profiled routine with histogram mass has at least one recorded
  call — its prologue must have run before any of its instructions
  could be sampled (the "arc-count mass vs histogram mass" cross-check;
  the converse, calls without samples, is ordinary for cheap routines).
"""

from __future__ import annotations

from collections import defaultdict

from repro.check.diagnostics import Diagnostic, make
from repro.core.profiledata import ProfileData
from repro.machine.executable import Executable
from repro.machine.isa import INSTRUCTION_SIZE, Op


def check_arc_records(exe: Executable, data: ProfileData) -> list[Diagnostic]:
    """GP301/GP302/GP303/GP307: each arc record against the text segment."""
    diags: list[Diagnostic] = []
    for arc in data.condensed_arcs():
        callee_fn = exe.function_at(arc.self_pc)
        if (
            callee_fn is None
            or callee_fn.entry != arc.self_pc
            or not callee_fn.profiled
        ):
            if callee_fn is None:
                detail = "matches no routine"
            elif callee_fn.entry != arc.self_pc:
                detail = f"lands mid-body in '{callee_fn.name}'"
            else:
                detail = f"is unprofiled routine '{callee_fn.name}'"
            diags.append(make(
                "GP302",
                f"arc callee address {arc.self_pc:#06x} {detail}; MCOUNT "
                "only ever records a profiled routine's entry",
                address=arc.self_pc,
                routine=callee_fn.name if callee_fn else None,
            ))
        if arc.from_pc == 0:
            continue  # the file format's spontaneous-caller marker
        if arc.from_pc % INSTRUCTION_SIZE or not (
            exe.low_pc <= arc.from_pc < exe.high_pc
        ):
            diags.append(make(
                "GP303",
                f"arc call site {arc.from_pc:#06x} lies outside the text "
                f"segment [{exe.low_pc:#x}, {exe.high_pc:#x})",
                address=arc.from_pc,
            ))
            continue
        site_fn = exe.function_at(arc.from_pc)
        ins = exe.fetch(arc.from_pc)
        if ins.op not in (Op.CALL, Op.CALLI):
            diags.append(make(
                "GP301",
                f"arc call site {arc.from_pc:#06x} holds {ins.op.value}, "
                "not CALL or CALLI; the arc cannot have been recorded "
                "from this image",
                address=arc.from_pc,
                routine=site_fn.name if site_fn else None,
            ))
        elif ins.op is Op.CALL and ins.operand != arc.self_pc:
            target_fn = exe.function_at(ins.operand or 0)
            target = target_fn.name if target_fn else f"{ins.operand:#x}"
            diags.append(make(
                "GP307",
                f"arc from {arc.from_pc:#06x} records callee "
                f"{arc.self_pc:#06x} but the CALL there targets "
                f"'{target}' ({ins.operand:#x})",
                address=arc.from_pc,
                routine=site_fn.name if site_fn else None,
            ))
    return diags


def check_histogram_geometry(
    exe: Executable, data: ProfileData
) -> list[Diagnostic]:
    """GP304/GP305: the histogram fits the text segment.

    The monitor samples the program counter, so every bucket holding
    mass must cover text addresses.  Bounds merely *covering more* than
    the text segment would be survivable, but our gathering side always
    sizes the histogram to the segment, so a mismatch is a strong sign
    the gmon belongs to a different image.
    """
    diags: list[Diagnostic] = []
    hist = data.histogram
    if hist.low_pc < exe.low_pc or hist.high_pc > exe.high_pc:
        diags.append(make(
            "GP305",
            f"histogram covers [{hist.low_pc:#x}, {hist.high_pc:#x}) but "
            f"the text segment is [{exe.low_pc:#x}, {exe.high_pc:#x}); "
            "this profile likely belongs to a different executable",
        ))
    if hist.counts:
        width = hist.bucket_width
        for idx, count in enumerate(hist.counts):
            if not count:
                continue
            b_lo = hist.low_pc + idx * width
            b_hi = b_lo + width
            if b_hi <= exe.low_pc or b_lo >= exe.high_pc:
                diags.append(make(
                    "GP304",
                    f"histogram bucket {idx} holds {count} tick(s) at "
                    f"[{int(b_lo):#x}, {int(b_hi):#x}), outside the text "
                    "segment; no program counter was ever there",
                    address=int(b_lo),
                ))
    return diags


def check_mass_agreement(
    exe: Executable, data: ProfileData
) -> list[Diagnostic]:
    """GP306: histogram mass implies call-count mass for profiled code.

    A profiled routine cannot execute — and therefore cannot be sampled
    — without its MCOUNT prologue recording at least one incoming arc
    (spontaneous counts included).  A routine with at least a full
    tick's worth of apportioned samples and zero recorded calls marks
    the profile as internally inconsistent: truncated arc table, or
    data summed from mismatched runs.
    """
    self_times = data.histogram.time_for_symbols(exe.symbol_table())
    incoming: dict[str, int] = defaultdict(int)
    for arc in data.condensed_arcs():
        fn = exe.function_at(arc.self_pc)
        if fn is not None:
            incoming[fn.name] += arc.count
    diags: list[Diagnostic] = []
    ticks_per_sec = data.histogram.profrate
    for fn in exe.functions:
        if not fn.profiled:
            continue
        ticks = self_times.get(fn.name, 0.0) * ticks_per_sec
        if ticks >= 1.0 - 1e-9 and incoming.get(fn.name, 0) == 0:
            diags.append(make(
                "GP306",
                f"profiled routine '{fn.name}' carries {ticks:.0f} "
                "histogram tick(s) but the arc table records no call "
                "into it; its MCOUNT prologue cannot have been skipped",
                address=fn.entry, routine=fn.name,
            ))
    return diags


def consistency_passes(
    exe: Executable, data: ProfileData
) -> list[Diagnostic]:
    """All gmon-versus-executable checks, in layer order."""
    return (
        check_arc_records(exe, data)
        + check_histogram_geometry(exe, data)
        + check_mass_agreement(exe, data)
    )

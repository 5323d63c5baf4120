"""Expectation checks: the measured profile against the static prediction.

The paper's machinery trusts its inputs; §6 only quantifies *sampling*
error.  These passes confront the measured gmon data with the dataflow
analysis (:mod:`repro.check.flow`) — each side can vouch for facts the
other cannot see, so a disagreement localizes a bug in the
instrumentation, the data files, or the pairing of the two:

* **GP610** — a measured arc with no statically-possible call site:
  the callee of an indirect call is not in the program's address-taken
  candidate set, so no execution of *this* image can have recorded the
  arc (direct-call mismatches are GP307's; opaque CALLI programs are
  exempt, GP104 already owns that gap);
* **GP611** — histogram mass wholly inside a block the interval
  analysis proves unreachable: the program counter cannot have been
  there, so the samples belong to another image or corrupted buckets;
* **GP612** — a measured call count exceeding what the static call-site
  multiplicity allows: with every site of the arc outside loops, a
  caller activated N times can record at most sites × N calls.

And the §6 accuracy statement made actionable: the **expected sampling
error** of a routine's time is proportional to the square root of its
sample count (one sampling period per √n).  :func:`sampling_confidence`
computes the ± for every routine so the flat profile can print it, and
flags routines whose *entire* measured time is within one expected
error of zero — numbers the paper would tell you not to quote.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.check.diagnostics import Diagnostic, make
from repro.check.flow import FlowAnalysis, analyze_flow
from repro.core.profiledata import ProfileData
from repro.machine.executable import Executable
from repro.machine.isa import Op


def check_impossible_arcs(
    exe: Executable, data: ProfileData, flow: FlowAnalysis
) -> list[Diagnostic]:
    """GP610: measured arcs no execution of this image can produce."""
    diags: list[Diagnostic] = []
    candidates = flow.calli_candidates
    for arc in data.condensed_arcs():
        if arc.from_pc == 0 or arc.count <= 0:
            continue  # spontaneous marker / empty slot
        if not (exe.low_pc <= arc.from_pc < exe.high_pc) or (
            arc.from_pc % 4
        ):
            continue  # GP303's finding, not ours
        site_fn = exe.function_at(arc.from_pc)
        callee_fn = exe.function_at(arc.self_pc)
        if (
            site_fn is None
            or callee_fn is None
            or callee_fn.entry != arc.self_pc
        ):
            continue  # GP302/GP303 territory
        ins = exe.fetch(arc.from_pc)
        if ins.op is not Op.CALLI:
            continue  # direct CALLs are covered exactly by GP307
        if not candidates:
            continue  # opaque indirect calls: GP104 owns the gap
        if callee_fn.name not in candidates:
            diags.append(make(
                "GP610",
                f"arc {site_fn.name} -> {callee_fn.name} "
                f"({arc.count} call(s)) goes through the CALLI at "
                f"{arc.from_pc:#06x}, but '{callee_fn.name}' is not in "
                "the address-taken candidate set; no execution of this "
                "image can have recorded it",
                address=arc.from_pc, routine=site_fn.name,
            ))
    return diags


def check_samples_in_dead_code(
    exe: Executable, data: ProfileData, flow: FlowAnalysis
) -> list[Diagnostic]:
    """GP611: histogram mass wholly inside absint-unreachable blocks."""
    dead_ranges: list[tuple[int, int, str]] = []
    for name, rf in flow.routines.items():
        if rf.values.aborted:
            continue
        for start in rf.values.unreachable:
            block = rf.cfg.blocks[start]
            dead_ranges.append((block.start, block.end, name))
    # CFG-unreachable blocks (GP101) are just as impossible to sample.
    for name, rf in flow.routines.items():
        for block in rf.cfg.unreachable_blocks():
            dead_ranges.append((block.start, block.end, name))
    if not dead_ranges:
        return []
    dead_ranges.sort()
    diags: list[Diagnostic] = []
    hist = data.histogram
    if not hist.counts:
        return []
    width = hist.bucket_width
    for idx, count in enumerate(hist.counts):
        if not count:
            continue
        b_lo = hist.low_pc + idx * width
        b_hi = b_lo + width
        for lo, hi, name in dead_ranges:
            # Only a bucket *wholly* inside the dead block is damning;
            # a straddling bucket could owe its ticks to the live side.
            if lo <= b_lo and b_hi <= hi:
                diags.append(make(
                    "GP611",
                    f"histogram bucket {idx} holds {count} tick(s) at "
                    f"[{int(b_lo):#x}, {int(b_hi):#x}) inside a "
                    f"statically-unreachable block of '{name}'; the "
                    "program counter cannot have been there",
                    address=int(b_lo), routine=name,
                ))
                break
    return diags


def check_call_count_bounds(
    exe: Executable, data: ProfileData, flow: FlowAnalysis
) -> list[Diagnostic]:
    """GP612: measured call counts versus static site multiplicity.

    Only argued where the static side is airtight: every site of the
    arc sits outside all loops, the caller has no opaque CALLI, and no
    cross-routine branch jumps into the caller (which could re-run its
    sites without a recorded activation).
    """
    prediction = flow.prediction
    if prediction is None:
        return []

    # Routines some other routine branches into: activations unreliable.
    jump_targets: set[str] = set()
    for rf in flow.routines.values():
        for _addr, target in rf.cfg.escaping_branches:
            victim = exe.function_at(target)
            if victim is not None:
                jump_targets.add(victim.name)

    measured: dict[tuple[str, str], int] = defaultdict(int)
    activations: dict[str, int] = defaultdict(int)
    for arc in data.condensed_arcs():
        callee_fn = exe.function_at(arc.self_pc)
        if callee_fn is None or callee_fn.entry != arc.self_pc:
            continue
        activations[callee_fn.name] += arc.count
        if arc.from_pc == 0:
            continue
        site_fn = exe.function_at(arc.from_pc)
        if site_fn is not None:
            measured[(site_fn.name, callee_fn.name)] += arc.count

    entry_fn = exe.function_at(exe.entry_point)
    if entry_fn is not None:
        activations[entry_fn.name] += max(data.runs, 1)

    sites_by_arc = prediction.arc_sites()
    diags: list[Diagnostic] = []
    for (caller, callee), count in sorted(measured.items()):
        pred_caller = prediction.routines.get(caller)
        if pred_caller is None or pred_caller.opaque_calli:
            continue
        if caller in jump_targets:
            continue
        sites = sites_by_arc.get((caller, callee))
        if not sites:
            continue  # impossibility is GP610/GP307's claim, not ours
        if any(s.loop_depth > 0 for s in sites):
            continue  # a looped site makes the multiplicity unbounded
        n_sites = len({s.address for s in sites})
        bound = n_sites * activations[caller]
        if count > bound:
            diags.append(make(
                "GP612",
                f"arc {caller} -> {callee} records {count} call(s), but "
                f"{caller} was activated {activations[caller]} time(s) "
                f"and has only {n_sites} loop-free call site(s) for it "
                f"(at most {bound} call(s) possible)",
                routine=caller,
            ))
    return diags


def expect_passes(
    exe: Executable,
    data: ProfileData,
    flow: FlowAnalysis | None = None,
) -> list[Diagnostic]:
    """All measured-versus-predicted checks for one profile."""
    if flow is None:
        flow = analyze_flow(exe)
    return (
        check_impossible_arcs(exe, data, flow)
        + check_samples_in_dead_code(exe, data, flow)
        + check_call_count_bounds(exe, data, flow)
    )


# --------------------------------------------------------- sampling confidence


def sampling_confidence(
    exe: Executable, data: ProfileData
) -> dict[str, float]:
    """§6 expected sampling error, in seconds, per routine.

    "The expected error in the number of samples for a routine is
    proportional to the square root of the number of samples" — one
    sampling period per √n.  A routine with 100 samples at 100 Hz is
    known to ±0.1 s; one with a single sample is barely known at all.
    """
    hist = data.histogram
    if not hist.counts or hist.profrate <= 0:
        return {}
    period = 1.0 / hist.profrate
    self_times = hist.time_for_symbols(exe.symbol_table())
    confidence: dict[str, float] = {}
    for name, seconds in self_times.items():
        ticks = seconds * hist.profrate
        confidence[name] = math.sqrt(max(ticks, 0.0)) * period
    return confidence

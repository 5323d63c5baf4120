"""T-VM — interpreter throughput: the fast engine vs the reference engine.

The reference :class:`~repro.machine.cpu.CPU` decodes every instruction
on every execution and walks a ~30-branch ``if``/``elif`` chain with
clock, interrupt, and sampling checks per step.  The fast engine
(:mod:`repro.machine.fastcpu`) predecodes once, dispatches through a
closure table, and batches all per-step checks behind a next-event
horizon.  This benchmark measures both engines on real workloads —
profiled and unprofiled — and asserts the contracts the fast path
lives by:

* **observably identical** — same cycle clock, same histogram, same
  arcs, byte-identical ``gmon.out`` (checked here in the same run the
  speed is measured in; the full differential battery lives in
  ``tests/test_fastcpu_equivalence.py``);
* **throughput** — the committed BENCH_vm.json records 6-11x profiled
  and 11-14x unprofiled instructions/second on fib / call_heavy /
  insertion_sort; the pytest check asserts a conservative 3x floor so
  loaded CI machines don't flake;
* **host profiling overhead** — each row's ``host_profiling_overhead``
  is profiled over unprofiled fast-engine seconds.  Profiling ticks
  fire inside the fast dispatch loop, so the pytest check bounds it at
  1.5x on compute_heavy (a tick crossing on nearly every WORK) and on
  fib (an MCOUNT on every call).

``python -m benchmarks.emit_bench --suite vm`` is the standalone runner
that measures the full trajectory and writes BENCH_vm.json.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.gmon import dumps_gmon
from repro.machine import ENGINES, Monitor, MonitorConfig, assemble, make_cpu
from repro.machine.programs import PROGRAMS

from benchmarks.conftest import report

#: Workloads: (program, builder kwargs) at several sizes, covering the
#: call-dominated, arithmetic-dominated, and WORK-dominated regimes.
FULL_WORKLOADS = [
    ("fib", {"n": 20}),
    ("call_heavy", {"calls": 20000}),
    ("compute_heavy", {"calls": 2000, "work": 200}),
    ("insertion_sort", {"n": 64}),
    ("hanoi", {"disks": 12}),
]
QUICK_WORKLOADS = [
    ("fib", {"n": 14}),
    ("call_heavy", {"calls": 2000}),
    ("compute_heavy", {"calls": 200, "work": 200}),
    ("insertion_sort", {"n": 24}),
]

CYCLES_PER_TICK = 100

#: Back-to-back profiled/unprofiled pairs behind each
#: ``host_profiling_overhead`` figure.
OVERHEAD_ROUNDS = 9


def _execute(source: str, engine: str, profile: bool):
    """One run; returns (cpu, gmon bytes or None)."""
    exe = assemble(source, profile=profile)
    monitor = None
    if profile:
        monitor = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=CYCLES_PER_TICK)
        )
    cpu = make_cpu(exe, monitor, engine=engine)
    cpu.run()
    gmon = dumps_gmon(monitor.snapshot()) if profile else None
    return cpu, gmon


def _timed_run(exe, engine: str, profile: bool):
    """Run a pre-assembled image on a fresh monitor and CPU; returns
    ``(seconds, cpu, monitor)``, timing execution only."""
    monitor = None
    if profile:
        monitor = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=CYCLES_PER_TICK)
        )
    cpu = make_cpu(exe, monitor, engine=engine)
    t0 = time.perf_counter()
    cpu.run()
    return time.perf_counter() - t0, cpu, monitor


def measure(source: str, engine: str, profile: bool, repeats: int):
    """Best-of instructions/second plus the run's observables.

    Only execution is timed: the image is assembled once and shared
    (predecode is cached on it, so a multi-repeat measurement amortizes
    the one-time lowering exactly as a long-lived image would), while
    each repeat gets a fresh monitor and CPU.
    """
    exe = assemble(source, profile=profile)
    best, cpu, gmon = float("inf"), None, None
    for _ in range(repeats):
        secs, cpu, monitor = _timed_run(exe, engine, profile)
        best = min(best, secs)
        gmon = dumps_gmon(monitor.snapshot()) if profile else None
    return cpu.instructions_executed / best, best, cpu, gmon


def host_overhead(source: str, rounds: int) -> float:
    """Profiled over unprofiled fast-engine seconds: the median ratio of
    ``rounds`` back-to-back pairs of runs.

    The two runs of a pair are adjacent in time, so they see the same
    host speed, and the median drops the pairs where the speed changed
    between them.  Best-of-N profiled and unprofiled blocks timed one
    after the other can each land on a different host speed.
    """
    images = {profile: assemble(source, profile=profile) for profile in (True, False)}
    ratios = []
    for _ in range(rounds):
        profiled, _, _ = _timed_run(images[True], "fast", True)
        unprofiled, _, _ = _timed_run(images[False], "fast", False)
        ratios.append(profiled / unprofiled)
    return statistics.median(ratios)


def run_vm(quick: bool) -> tuple[dict, bool]:
    """Measure every workload on both engines; the emit_bench core.

    Returns ``(report_dict, identical_everywhere)`` where the flag
    asserts byte-identical gmon output (and identical machine state)
    between the engines on every profiled workload.
    """
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    repeats = 1 if quick else 3
    rows = []
    identical_everywhere = True
    for name, kwargs in workloads:
        source = PROGRAMS[name](**kwargs)
        row = {"program": name, "args": kwargs}
        for profile in (True, False):
            mode = "profiled" if profile else "unprofiled"
            results = {}
            for engine in ENGINES:
                ips, secs, cpu, gmon = measure(source, engine, profile, repeats)
                results[engine] = (cpu, gmon)
                row[f"{mode}_{engine}_ips"] = round(ips)
                row[f"{mode}_{engine}_seconds"] = round(secs, 6)
            fast_cpu, fast_gmon = results["fast"]
            ref_cpu, ref_gmon = results["reference"]
            identical = (
                fast_gmon == ref_gmon
                and fast_cpu.cycles == ref_cpu.cycles
                and fast_cpu.instructions_executed == ref_cpu.instructions_executed
                and fast_cpu.output == ref_cpu.output
            )
            identical_everywhere &= identical
            row[f"{mode}_speedup"] = round(
                row[f"{mode}_fast_ips"] / row[f"{mode}_reference_ips"], 2
            )
            row[f"{mode}_identical"] = identical
        row["instructions"] = results["fast"][0].instructions_executed
        # Seconds, not instr/s: the profiled image also runs the MCOUNT
        # prologues, so its instruction count is larger.
        row["host_profiling_overhead"] = round(
            host_overhead(source, OVERHEAD_ROUNDS), 2
        )
        rows.append(row)
        print(
            f"  {name:>15}: profiled {row['profiled_speedup']:>5}x"
            f"  unprofiled {row['unprofiled_speedup']:>5}x"
            f"  overhead {row['host_profiling_overhead']:>4}x"
            f"  ({row['instructions']} instructions)"
            f"  identical={row['profiled_identical'] and row['unprofiled_identical']}"
        )
    import os
    import platform

    return {
        "benchmark": "T-VM interpreter throughput",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cycles_per_tick": CYCLES_PER_TICK,
        "repeats": repeats,
        "rows": rows,
    }, identical_everywhere


# --------------------------------------------------------------------------
# pytest-benchmark entries + the directional contract.
# --------------------------------------------------------------------------

FIB_SOURCE = PROGRAMS["fib"](17)


def test_fast_engine_profiled_throughput(benchmark):
    cpu, gmon = benchmark(_execute, FIB_SOURCE, "fast", True)
    assert cpu.halted and gmon


def test_reference_engine_profiled_baseline(benchmark):
    cpu, gmon = benchmark(_execute, FIB_SOURCE, "reference", True)
    assert cpu.halted and gmon


def test_fast_engine_unprofiled_throughput(benchmark):
    cpu, _ = benchmark(_execute, FIB_SOURCE, "fast", False)
    assert cpu.halted


@pytest.mark.parametrize("profile", [True, False],
                         ids=["profiled", "unprofiled"])
def test_fast_engine_at_least_3x(profile):
    """The acceptance floor, asserted on every pytest run; the full
    magnitudes (6-14x) live in the committed BENCH_vm.json."""
    mode = "profiled" if profile else "unprofiled"
    fast_ips, _, fast_cpu, fast_gmon = measure(FIB_SOURCE, "fast", profile, 3)
    ref_ips, _, ref_cpu, ref_gmon = measure(FIB_SOURCE, "reference", profile, 3)
    report(
        f"VM engines, fib(17) {mode}: reference vs fast",
        [
            ("reference", f"{ref_ips:,.0f} i/s"),
            ("fast", f"{fast_ips:,.0f} i/s"),
            ("speedup", f"{fast_ips / ref_ips:.2f}x"),
        ],
        header=("engine", "throughput"),
    )
    # identical observables in the very run that was timed
    assert fast_gmon == ref_gmon
    assert fast_cpu.cycles == ref_cpu.cycles
    assert fast_cpu.instructions_executed == ref_cpu.instructions_executed
    assert fast_ips >= 3 * ref_ips


@pytest.mark.parametrize(
    "name,kwargs",
    [("compute_heavy", {"calls": 2000, "work": 200}), ("fib", {"n": 17})],
    ids=["compute_heavy", "fib"],
)
def test_host_profiling_overhead_bounded(name, kwargs):
    """Profiling may cost the fast engine at most 1.5x its unprofiled
    time on the host.  compute_heavy crosses a tick on nearly every
    WORK, so it bounds the per-tick cost; fib bounds the per-call
    MCOUNT cost."""
    overhead = host_overhead(PROGRAMS[name](**kwargs), OVERHEAD_ROUNDS)
    report(
        f"VM fast engine, {name}: profiled / unprofiled seconds",
        [(f"median of {OVERHEAD_ROUNDS} pairs", f"{overhead:.2f}x")],
    )
    assert overhead <= 1.5


def test_quick_suite_byte_identical():
    """The emit_bench core's own identity gate, at smoke scale."""
    report_dict, identical = run_vm(quick=True)
    assert identical
    assert all(
        row["profiled_fast_ips"] > 0 and row["unprofiled_fast_ips"] > 0
        for row in report_dict["rows"]
    )

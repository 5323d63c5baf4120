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
* **throughput** — each speedup in the committed BENCH_vm.json is the
  median of per-round reference/fast ratios; the pytest check asserts
  a conservative 3x floor so loaded CI machines don't flake;
* **host profiling overhead** — each row's ``host_profiling_overhead``
  is the median of per-round profiled/unprofiled fast-engine seconds.
  Profiling ticks fire inside the fast dispatch loop, so the pytest
  check bounds it at 1.5x on compute_heavy (a tick crossing on nearly
  every WORK) and on fib (an MCOUNT on every call).

``python -m benchmarks.emit_bench --suite vm`` is the standalone runner
that measures the full trajectory and writes BENCH_vm.json.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.gmon import dumps_gmon
from repro.machine import ENGINES, Monitor, MonitorConfig, assemble, make_cpu
from repro.machine.programs import PROGRAMS

from benchmarks.conftest import report
from benchmarks.timing import fresh_rounds, header, ratio, spread, summary

#: Workloads: (program, builder kwargs) at several sizes, covering the
#: call-dominated, arithmetic-dominated, and WORK-dominated regimes.
FULL = {
    "workloads": [
        ("fib", {"n": 20}),
        ("call_heavy", {"calls": 20000}),
        ("compute_heavy", {"calls": 2000, "work": 200}),
        ("insertion_sort", {"n": 64}),
        ("hanoi", {"disks": 12}),
    ],
    "repeats": 9,
}
QUICK = {
    "workloads": [
        ("fib", {"n": 14}),
        ("call_heavy", {"calls": 2000}),
        ("compute_heavy", {"calls": 200, "work": 200}),
        ("insertion_sort", {"n": 24}),
    ],
    "repeats": 3,
}

CYCLES_PER_TICK = 100


def _cpu(exe, engine: str, profile: bool):
    """A fresh CPU, with a fresh monitor when profiling.

    Timed runs share one image per mode (predecode is cached on it, as
    on a long-lived image) and build their CPUs untimed.
    """
    monitor = None
    if profile:
        monitor = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=CYCLES_PER_TICK)
        )
    return make_cpu(exe, monitor, engine=engine)


def _gmon(cpu):
    return dumps_gmon(cpu.monitor.snapshot()) if cpu.monitor else None


def _execute(source: str, engine: str, profile: bool):
    """One run; returns (cpu, gmon bytes or None)."""
    cpu = _cpu(assemble(source, profile=profile), engine, profile)
    cpu.run()
    return cpu, _gmon(cpu)


def compare_engines(source: str, profile: bool, repeats: int) -> dict:
    """Both engines on one image: one mode's columns of a row.

    ``identical`` compares the observables of the runs that were timed:
    gmon bytes, cycle clock, instruction count and output.
    """
    exe = assemble(source, profile=profile)
    seconds, cpus = fresh_rounds(
        {engine: partial(_cpu, exe, engine, profile) for engine in ENGINES},
        repeats,
    )
    fast, ref = cpus["fast"], cpus["reference"]
    columns = {"instructions": fast.instructions_executed}
    for engine in ENGINES:
        columns[f"{engine}_seconds"] = summary(seconds[engine])
        columns[f"{engine}_ips"] = round(
            cpus[engine].instructions_executed
            / columns[f"{engine}_seconds"]["median"]
        )
    columns["speedup"] = ratio(seconds, "reference", "fast")
    columns["identical"] = (
        _gmon(fast) == _gmon(ref)
        and fast.cycles == ref.cycles
        and fast.instructions_executed == ref.instructions_executed
        and fast.output == ref.output
    )
    return columns


def host_overhead(source: str, repeats: int) -> dict:
    """Profiled over unprofiled fast-engine seconds, round by round.

    Seconds, not instructions/second: the profiled image also runs the
    MCOUNT prologues, so its instruction count is larger.
    """
    seconds, _ = fresh_rounds(
        {
            mode: partial(_cpu, assemble(source, profile=profile), "fast",
                          profile)
            for mode, profile in (("profiled", True), ("unprofiled", False))
        },
        repeats,
    )
    return ratio(seconds, "profiled", "unprofiled")


def run_vm(quick: bool) -> tuple[dict, bool]:
    """Measure every workload on both engines; the emit_bench core.

    Returns ``(report_dict, identical_everywhere)`` where the flag
    asserts byte-identical gmon output (and identical machine state)
    between the engines on every workload, profiled and unprofiled.
    """
    cfg = QUICK if quick else FULL
    rows = []
    identical_everywhere = True
    for name, kwargs in cfg["workloads"]:
        source = PROGRAMS[name](**kwargs)
        row = {"program": name, "args": kwargs}
        for profile in (True, False):
            mode = "profiled" if profile else "unprofiled"
            columns = compare_engines(source, profile, cfg["repeats"])
            identical_everywhere &= columns["identical"]
            row.update((f"{mode}_{key}", value) for key, value in columns.items())
        row["host_profiling_overhead"] = host_overhead(source, cfg["repeats"])
        rows.append(row)
        print(
            f"  {name:>15}: profiled {spread(row['profiled_speedup'])}"
            f"  unprofiled {spread(row['unprofiled_speedup'])}"
            f"  overhead {spread(row['host_profiling_overhead'])}"
            f"  identical={row['profiled_identical'] and row['unprofiled_identical']}"
        )
    return {
        **header("T-VM interpreter throughput", quick, cfg["repeats"]),
        "cycles_per_tick": CYCLES_PER_TICK,
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
    magnitudes live in the committed BENCH_vm.json."""
    mode = "profiled" if profile else "unprofiled"
    columns = compare_engines(FIB_SOURCE, profile, QUICK["repeats"])
    report(
        f"VM engines, fib(17) {mode}: reference vs fast",
        [
            ("reference", f"{columns['reference_ips']:,} i/s"),
            ("fast", f"{columns['fast_ips']:,} i/s"),
            ("speedup", spread(columns["speedup"])),
        ],
        header=("engine", "throughput"),
    )
    # identical observables in the very runs that were timed
    assert columns["identical"]
    assert columns["speedup"]["median"] >= 3


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
    overhead = host_overhead(PROGRAMS[name](**kwargs), FULL["repeats"])
    report(
        f"VM fast engine, {name}: profiled / unprofiled seconds",
        [(f"median [q1, q3] of {overhead['n']} rounds", spread(overhead))],
    )
    assert overhead["median"] <= 1.5


def test_quick_suite_byte_identical():
    """The emit_bench core's own identity gate, at smoke scale."""
    report_dict, identical = run_vm(quick=True)
    assert identical
    for row in report_dict["rows"]:
        for mode in ("profiled", "unprofiled"):
            assert row[f"{mode}_identical"]
            assert row[f"{mode}_fast_ips"] > 0
            assert row[f"{mode}_speedup"]["n"] == QUICK["repeats"]
        assert row["host_profiling_overhead"]["n"] == QUICK["repeats"]

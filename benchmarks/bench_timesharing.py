"""T-TIMESHARE — §3.2: why sampling beats elapsed-time measurement.

"One method measures the execution time of a routine by measuring the
elapsed time from routine entry to routine exit.  Unfortunately, time
measurement is complicated on time-sharing systems by the time-slicing
of the program.  A second method samples the value of the program
counter... particularly suited to time-sharing systems."

Shape reproduced: running the measured program alongside a competing
process on a round-robin machine,

* the elapsed-time profiler's per-activation figure for the measured
  routine inflates with the competitor's share of the machine (≈2x
  with one equal competitor, ≈Nx with N), while
* the PC-sampling histogram of the measured process is bit-identical
  to a solo run — its clock only advances while it runs.
"""

import pytest

from repro.machine import CPU, Monitor, MonitorConfig, assemble
from repro.machine.timeshare import ElapsedTimeProfiler, TimeSharedMachine

from benchmarks.conftest import report

MEASURED = """
.func main
    PUSH 25
    STORE 0
loop:
    CALL step_work
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

.func step_work
    WORK 120
    RET
.end
"""

COMPETITOR = """
.func main
    PUSH 500
    STORE 0
loop:
    WORK 100
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end
"""


def run_machine(n_competitors: int):
    """Run the measured program beside ``n_competitors`` noise processes."""
    exe = assemble(MEASURED, name="measured", profile=True)
    monitor = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
    measured = CPU(exe, monitor)
    cpus = [measured] + [
        CPU(assemble(COMPETITOR, name=f"noise{i}")) for i in range(n_competitors)
    ]
    machine = TimeSharedMachine(cpus, quantum=150)
    elapsed = ElapsedTimeProfiler(machine.wall_clock)
    measured.tracer = elapsed
    machine.run()
    return exe, monitor, elapsed


def test_elapsed_inflates_with_load(benchmark):
    results = {}
    for n in (0, 1, 3):
        _, _, elapsed = run_machine(n)
        results[n] = elapsed.mean_wall("step_work")
    rows = [
        (f"{n} competitors", f"{results[n]:.0f} wall cycles",
         f"{results[n] / results[0]:.2f}x")
        for n in (0, 1, 3)
    ]
    report("Elapsed-time method: mean wall time of step_work",
           rows, header=("load", "measured", "inflation"))
    benchmark(lambda: run_machine(1))
    assert results[1] > results[0] * 1.2
    assert results[3] > results[1]


def test_sampling_immune_to_load(benchmark):
    profiles = {}
    for n in (0, 1, 3):
        exe, monitor, _ = run_machine(n)
        profiles[n] = monitor.histogram.time_for_symbols(exe.symbol_table())
    rows = [
        (f"{n} competitors",
         f"{profiles[n].get('step_work', 0):.3f}s",
         f"{profiles[n].get('main', 0):.3f}s")
        for n in (0, 1, 3)
    ]
    report("Sampling method: step_work / main self time",
           rows, header=("load", "step_work", "main"))
    benchmark(lambda: run_machine(0))
    # bit-identical across machine loads
    assert profiles[0] == profiles[1] == profiles[3]

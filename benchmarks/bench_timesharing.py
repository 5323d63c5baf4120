"""T-TIMESHARE — §3.2: why sampling beats elapsed-time measurement.

"One method measures the execution time of a routine by measuring the
elapsed time from routine entry to routine exit.  Unfortunately, time
measurement is complicated on time-sharing systems by the time-slicing
of the program.  A second method samples the value of the program
counter... particularly suited to time-sharing systems."

Shape reproduced: running N copies of the measured program round robin
on a one-CPU :class:`~repro.machine.smp.SMPMachine`, with the
elapsed-time profiler on process 0,

* the elapsed-time profiler's per-activation figure for the measured
  routine inflates with the machine's load (≈2x with two processes,
  ≈Nx with N), while
* the PC-sampling histogram is exactly N times the solo run's, bucket
  for bucket — each process's clock only advances while it runs.
"""

from repro.machine import assemble
from repro.machine.smp import SMPMachine
from repro.machine.timeshare import ElapsedTimeProfiler

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

#: Process counts: the measured program alone, then with 1 and 3 copies.
LOADS = (1, 2, 4)


def run_machine(nprocs: int):
    """Run ``nprocs`` copies of the measured program round robin on one
    CPU; the elapsed-time profiler watches process 0."""
    exe = assemble(MEASURED, name="measured", profile=True)
    machine = SMPMachine(
        exe, ncpus=1, nprocs=nprocs, policy="rr", quantum=150,
        cycles_per_tick=10,
    )
    measured = machine.procs[0]
    elapsed = ElapsedTimeProfiler(measured.wall_clock)
    measured.cpu.tracer = elapsed
    machine.run()
    return exe, machine, elapsed


def test_elapsed_inflates_with_load(benchmark):
    results = {}
    for n in LOADS:
        _, _, elapsed = run_machine(n)
        results[n] = elapsed.mean_wall("step_work")
    rows = [
        (f"{n} process(es)", f"{results[n]:.1f} wall cycles",
         f"{results[n] / results[1]:.2f}x")
        for n in LOADS
    ]
    report("Elapsed-time method: mean wall time of step_work",
           rows, header=("load", "measured", "inflation"))
    benchmark(lambda: run_machine(2))
    assert results[2] > results[1] * 1.2
    assert results[4] > results[2]


def test_sampling_immune_to_load(benchmark):
    solo = None
    rows = []
    for n in LOADS:
        exe, machine, _ = run_machine(n)
        merged = machine.merged_profile()
        if solo is None:
            solo = merged.histogram.counts
        # bit-identical per process: N copies sample exactly N x solo
        assert merged.histogram.counts == [n * c for c in solo]
        times = merged.histogram.time_for_symbols(exe.symbol_table())
        rows.append((f"{n} process(es)", merged.total_ticks,
                     f"{times.get('step_work', 0) / n:.3f}s",
                     f"{times.get('main', 0) / n:.3f}s"))
    report("Sampling method: merged ticks, step_work / main self time "
           "per process", rows,
           header=("load", "ticks", "step_work", "main"))
    benchmark(lambda: run_machine(1))

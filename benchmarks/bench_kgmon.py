"""T-KGMON — retrospective: live kernel profiling.

"we had to be able to profile events of interest in the kernel without
taking the kernel down...  The programmer's interface allowed us to
turn the profiler on and off, extract the profiling data, and reset
the data."

Shape reproduced:

* control operations (on/off/extract/reset) never stop the kernel —
  its cycle clock advances across every operation;
* profiling OFF costs the kernel nothing (cycle-identical to an
  unmonitored run);
* windows partition the run: the windows' merge is the whole run's
  profile, byte for byte.

Benchmarked quantities: the extract (snapshot) cost, and a full
window-recording session.
"""

from repro.gmon import dumps_gmon
from repro.kernel import Kgmon, KernelSession
from repro.machine.smp import reduce_shards

from benchmarks.conftest import report


def test_extract_cost_and_isolation(benchmark):
    session = KernelSession(iterations=600)
    kgmon = Kgmon(session)
    session.run_slice(32)
    data = benchmark(kgmon.extract, "bench window")
    # extraction is a copy: continuing the kernel must not mutate it.
    ticks_before = data.total_ticks
    assert session.run_slice(32)
    assert data.total_ticks == ticks_before
    report(
        "kgmon extract",
        [("ticks in snapshot", ticks_before),
         ("arcs in snapshot", len(data.arcs))],
    )


def test_profiling_off_is_free(benchmark):
    def run_off():
        session = KernelSession(iterations=150)
        kgmon = Kgmon(session)
        kgmon.off()
        session.run_to_completion()
        return kgmon.status().kernel_cycles

    def run_on():
        session = KernelSession(iterations=150)
        session.run_to_completion()
        return Kgmon(session).status().kernel_cycles

    off_cycles = run_off()
    on_cycles = run_on()
    benchmark(run_off)
    report(
        "Kernel cycles with profiling on vs off",
        [("profiling on", on_cycles), ("profiling off", off_cycles),
         ("mcount overhead", f"{100 * (on_cycles - off_cycles) / off_cycles:.1f}%")],
    )
    assert off_cycles < on_cycles


def test_windows_partition_the_run(benchmark):
    def record_windows():
        session = KernelSession(iterations=300)
        kgmon = Kgmon(session)
        windows = []
        while not session.halted:
            session.run_slice(10)
            windows.append(kgmon.extract("run", reset=True))
        return session, windows

    session, windows = benchmark.pedantic(record_windows, rounds=1, iterations=1)
    whole_session = KernelSession(iterations=300)
    whole_session.run_to_completion()
    whole = Kgmon(whole_session).extract("run")
    window_ticks = sum(w.total_ticks for w in windows)
    window_calls = sum(w.total_calls for w in windows)
    report(
        "Window partition vs uninterrupted run",
        [("windows", len(windows)),
         ("Σ window ticks", window_ticks),
         ("whole-run ticks", whole.total_ticks),
         ("Σ window calls", window_calls),
         ("whole-run calls", whole.total_calls)],
    )
    # A reset keeps each process's cost table, so the partition is
    # exact: the merged windows are the whole run's bytes.
    assert len(windows) > 1
    merged = reduce_shards(windows, comment="run", runs=1)
    assert dumps_gmon(merged) == dumps_gmon(whole)


def test_kernel_never_stops(benchmark):
    session = KernelSession(iterations=400)
    kgmon = Kgmon(session)

    def control_storm():
        before = kgmon.status().kernel_cycles
        session.run_slice(3)
        kgmon.on()
        session.run_slice(3)
        kgmon.extract()
        session.run_slice(3)
        kgmon.off()
        session.run_slice(3)
        kgmon.reset()
        session.run_slice(3)
        return kgmon.status().kernel_cycles - before

    progressed = benchmark.pedantic(control_storm, rounds=1, iterations=1)
    report("Kernel progress across a control storm",
           [("cycles advanced", progressed)])
    assert progressed > 0

"""Tests for the time-sharing machine and the §3.2 measurement argument."""

import pytest

from repro.core import analyze
from repro.errors import MachineError
from repro.machine import CPU, Monitor, MonitorConfig, assemble
from repro.machine.timeshare import ElapsedTimeProfiler, TimeSharedMachine

MEASURED = """
.func main
    PUSH 20
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
    WORK 100
    RET
.end
"""

COMPETITOR = """
.func main
    PUSH 60
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


class TestMachine:
    def test_round_robin_interleaves(self):
        a = CPU(assemble(MEASURED, name="a"))
        b = CPU(assemble(COMPETITOR, name="b"))
        machine = TimeSharedMachine([a, b], quantum=200)
        machine.run()
        assert a.halted and b.halted
        assert machine.context_switches > 2
        assert machine.wall_cycles == a.cycles + b.cycles

    def test_solo_process_wall_equals_process_time(self):
        a = CPU(assemble(MEASURED, name="a"))
        machine = TimeSharedMachine([a], quantum=100)
        machine.run()
        assert machine.wall_cycles == a.cycles

    def test_wall_budget(self):
        a = CPU(assemble(COMPETITOR, name="a"))
        machine = TimeSharedMachine([a], quantum=100)
        machine.run(max_wall_cycles=500)
        assert not a.halted
        assert machine.wall_cycles >= 500

    def test_validation(self):
        with pytest.raises(MachineError):
            TimeSharedMachine([], quantum=10)
        with pytest.raises(MachineError):
            TimeSharedMachine([CPU(assemble(MEASURED))], quantum=0)


class TestElapsedVsSampled:
    """The §3.2 experiment: elapsed-time measurement breaks under
    time-slicing; PC sampling does not."""

    def _run_shared(self):
        exe = assemble(MEASURED, name="measured", profile=True)
        monitor = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10)
        )
        measured = CPU(exe, monitor)
        competitor = CPU(assemble(COMPETITOR, name="noise"))
        machine = TimeSharedMachine([measured, competitor], quantum=150)
        elapsed = ElapsedTimeProfiler(machine.wall_clock)
        measured.tracer = elapsed
        machine.run()
        return exe, measured, monitor, elapsed

    def _run_alone(self):
        exe = assemble(MEASURED, name="measured", profile=True)
        monitor = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10)
        )
        cpu = CPU(exe, monitor)
        machine = TimeSharedMachine([cpu], quantum=150)
        elapsed = ElapsedTimeProfiler(machine.wall_clock)
        cpu.tracer = elapsed
        machine.run()
        return elapsed, monitor, exe

    def test_elapsed_time_inflated_by_time_slicing(self):
        alone_elapsed, _, _ = self._run_alone()
        _, _, _, shared_elapsed = self._run_shared()
        alone = alone_elapsed.mean_wall("step_work")
        shared = shared_elapsed.mean_wall("step_work")
        # sharing the machine inflates measured entry-to-exit time
        assert shared > alone * 1.2

    def test_sampling_unaffected_by_time_slicing(self):
        _, alone_monitor, exe = self._run_alone()
        _, _, shared_monitor, _ = self._run_shared()
        symbols = exe.symbol_table()
        alone_times = alone_monitor.histogram.time_for_symbols(symbols)
        shared_times = shared_monitor.histogram.time_for_symbols(symbols)
        # the sampled profile of the measured process is identical: its
        # own clock only advances while it runs.
        assert shared_times == alone_times

    def test_sampled_profile_analyzes_normally_when_shared(self):
        exe, cpu, monitor, _ = self._run_shared()
        profile = analyze(monitor.mcleanup(), exe.symbol_table())
        assert profile.entry("step_work").ncalls == 20
        assert profile.entry("main").percent == pytest.approx(100.0, abs=1.0)

"""The §3.2 measurement argument on a time-shared machine.

The time-shared machine is :class:`~repro.machine.smp.SMPMachine` with
one CPU and the ``rr`` policy: N copies of the measured program take
turns on one wall clock.  Process 0 carries the rejected
:class:`ElapsedTimeProfiler`; every process samples on its own clock.
"""

import pytest

from repro.core import analyze
from repro.errors import MachineError
from repro.machine import assemble
from repro.machine.smp import SMPMachine
from repro.machine.timeshare import ElapsedTimeProfiler

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


def time_shared(nprocs, *, profile=False, quantum=150):
    """``nprocs`` copies of MEASURED, round robin on one CPU."""
    exe = assemble(MEASURED, name="measured", profile=profile)
    return SMPMachine(
        exe, ncpus=1, nprocs=nprocs, policy="rr", quantum=quantum,
        profile=profile, cycles_per_tick=10,
    )


class TestMachine:
    def test_round_robin_interleaves(self):
        machine = time_shared(2, quantum=200)
        machine.run()
        a, b = machine.procs
        assert a.cpu.halted and b.cpu.halted
        assert machine.context_switches > 2
        assert a.slices > 1 and b.slices > 1
        assert machine.wall_cycles == a.cpu.cycles + b.cpu.cycles

    def test_solo_process_wall_equals_process_time(self):
        machine = time_shared(1, quantum=100)
        machine.run()
        assert machine.wall_cycles == machine.procs[0].cpu.cycles

    def test_wall_budget(self):
        machine = time_shared(1, quantum=100)
        machine.run(max_wall_cycles=500)
        assert not machine.halted
        assert machine.wall_cycles >= 500

    def test_validation(self):
        exe = assemble(MEASURED)
        with pytest.raises(MachineError):
            SMPMachine(exe, ncpus=1, nprocs=0, profile=False)
        with pytest.raises(MachineError):
            SMPMachine(exe, ncpus=1, quantum=0, profile=False)


class TestElapsedVsSampled:
    """The §3.2 experiment: elapsed-time measurement breaks under
    time-slicing; PC sampling does not."""

    def _run(self, nprocs):
        machine = time_shared(nprocs, profile=True)
        measured = machine.procs[0]
        elapsed = ElapsedTimeProfiler(measured.wall_clock)
        measured.cpu.tracer = elapsed
        machine.run()
        return machine, elapsed

    def test_elapsed_time_inflated_by_time_slicing(self):
        alone, alone_elapsed = self._run(1)
        shared, shared_elapsed = self._run(2)
        # sharing the machine inflates measured entry-to-exit time...
        assert (
            shared_elapsed.mean_wall("step_work")
            > alone_elapsed.mean_wall("step_work") * 1.2
        )
        # ...while the process itself did exactly the same work.
        assert shared.procs[0].cpu.cycles == alone.procs[0].cpu.cycles

    def test_sampling_unaffected_by_time_slicing(self):
        # One CPU's shard holds every process's ticks; each process's
        # clock only advances while it runs, so N copies sample exactly
        # N times the solo histogram, bucket for bucket.
        alone, _ = self._run(1)
        for n in (2, 4):
            shared, _ = self._run(n)
            solo = alone.merged_profile().histogram.counts
            assert shared.merged_profile().histogram.counts == [
                n * c for c in solo
            ]

    def test_sampled_profile_analyzes_normally_when_shared(self):
        machine, _ = self._run(2)
        profile = analyze(machine.merged_profile(), machine.exe.symbol_table())
        assert profile.entry("step_work").ncalls == 2 * 20
        assert profile.entry("main").percent == pytest.approx(100.0, abs=1.0)

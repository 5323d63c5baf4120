"""Tests for the execution monitor lifecycle (§3, retrospective kgmon)."""

import pytest

from repro.errors import MachineError
from repro.machine import CPU, Monitor, MonitorConfig, assemble


def make_monitor(src, cycles_per_tick=10):
    exe = assemble(src, profile=True)
    mon = Monitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=cycles_per_tick)
    )
    return exe, mon


LOOP = """
.func main
    PUSH 10
    STORE 0
loop:
    CALL leaf
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end
.func leaf
    WORK 20
    RET
.end
"""


class TestGathering:
    def test_mcleanup_contains_arcs_and_samples(self):
        exe, mon = make_monitor(LOOP)
        CPU(exe, mon).run()
        data = mon.mcleanup(comment="loop")
        assert data.comment == "loop"
        assert data.total_ticks > 0
        # main is called spontaneously; leaf 10 times from main.
        leaf = exe.function_named("leaf")
        leaf_arcs = [a for a in data.arcs if a.self_pc == leaf.entry]
        assert sum(a.count for a in leaf_arcs) == 10

    def test_spontaneous_entry_arc(self):
        exe, mon = make_monitor(LOOP)
        CPU(exe, mon).run()
        data = mon.mcleanup()
        main = exe.function_named("main")
        spont = [a for a in data.arcs if a.self_pc == main.entry]
        assert spont == [type(spont[0])(0, main.entry, 1)]


class TestModes:
    def test_moncontrol_off_stops_gathering(self):
        exe, mon = make_monitor(LOOP)
        mon.moncontrol(False)
        CPU(exe, mon).run()
        data = mon.mcleanup()
        assert data.total_ticks == 0
        assert data.arcs == []

    def test_moncontrol_off_costs_nothing(self):
        exe, mon = make_monitor(LOOP)
        mon.moncontrol(False)
        cpu_off = CPU(exe, mon).run()
        cpu_plain = CPU(assemble(LOOP, profile=False)).run()
        # MCOUNT itself has zero base cost when disabled; only the
        # instruction fetch remains, which our cost table prices at 0.
        assert cpu_off.cycles == cpu_plain.cycles

    def test_reenabling_mid_run(self):
        exe, mon = make_monitor(LOOP)
        cpu = CPU(exe, mon)
        mon.moncontrol(False)
        cpu.run(max_instructions=30)
        mon.moncontrol(True)
        cpu.run()
        data = mon.mcleanup()
        assert data.total_calls > 0


class TestSnapshotReset:
    def test_snapshot_is_independent_copy(self):
        exe, mon = make_monitor(LOOP)
        cpu = CPU(exe, mon)
        cpu.run(max_instructions=40)
        snap = mon.snapshot("window 1")
        ticks_then = snap.total_ticks
        cpu.run()
        assert snap.total_ticks == ticks_then
        assert mon.snapshot().total_ticks >= ticks_then

    def test_reset_zeroes_everything(self):
        exe, mon = make_monitor(LOOP)
        cpu = CPU(exe, mon)
        cpu.run(max_instructions=40)
        mon.reset()
        assert mon.snapshot().total_ticks == 0
        assert mon.snapshot().arcs == []

    def test_windows_sum_to_whole(self):
        # Extract + reset in windows; the windows' ticks sum to an
        # uninterrupted run's ticks (same deterministic program).
        exe, mon = make_monitor(LOOP)
        cpu = CPU(exe, mon)
        windows = []
        while not cpu.halted:
            cpu.run(max_instructions=25)
            windows.append(mon.snapshot())
            mon.reset()
        exe2, mon2 = make_monitor(LOOP)
        CPU(exe2, mon2).run()
        whole = mon2.snapshot()
        assert sum(w.total_ticks for w in windows) == whole.total_ticks
        assert sum(w.total_calls for w in windows) == whole.total_calls


class TestDroppedTicks:
    def test_out_of_range_ticks_counted(self):
        exe = assemble(LOOP, profile=True)
        # Deliberately misconfigure the histogram to cover nothing.
        mon = Monitor(MonitorConfig(10_000, 10_100, cycles_per_tick=10))
        CPU(exe, mon).run()
        assert mon.ticks_dropped > 0
        assert mon.histogram.total_ticks == 0


class TestConfigValidation:
    """A profile needs a clock: no tick interval or flush cadence below
    what the CPU can honour is accepted."""

    @pytest.mark.parametrize("ticks", [0, -3])
    def test_cycles_per_tick_must_be_positive(self, ticks):
        with pytest.raises(MachineError, match="cycles per tick"):
            MonitorConfig(0, 64, cycles_per_tick=ticks)

    def test_checkpoint_interval_must_not_be_negative(self):
        with pytest.raises(MachineError, match="checkpoint interval"):
            MonitorConfig(0, 64, checkpoint_interval=-1)

    def test_zero_checkpoint_interval_still_disables_flushing(self, tmp_path):
        config = MonitorConfig(
            0, 64, checkpoint_path=str(tmp_path / "x"), checkpoint_interval=0
        )
        mon = Monitor(config)
        mon.tick(0)
        assert mon.checkpoints_written == 0

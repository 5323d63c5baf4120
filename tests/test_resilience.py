"""Crash-safe persistence and the fault-injection harness.

The contract under test: an atomic write killed at *any* byte leaves
the previous complete file intact; a checkpointing monitor killed
mid-run (even mid-flush) leaves a readable checkpoint whose profile
matches the last completed flush; and every torn artifact a non-atomic
write can produce is either rejected cleanly by the strict reader or
recovered-and-flagged by the salvaging one.
"""

import os

import pytest

from repro.core.arcs import RawArc
from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.errors import GmonFormatError
from repro.gmon import dumps_gmon, read_gmon, write_gmon
from repro.kernel import Kgmon, KernelSession
from repro.machine import CPU, Monitor, MonitorConfig, assemble
from repro.machine.programs import PROGRAMS
from repro.resilience import (
    FaultInjector,
    InjectedFault,
    all_truncations,
    atomic_write_bytes,
    random_bit_flips,
)


def _sample() -> ProfileData:
    return ProfileData(
        Histogram(0, 40, [1, 0, 2, 0, 0, 5, 0, 0, 0, 3]),
        [RawArc(4, 20, 9)],
        comment="resilience",
    )


class TestAtomicWrite:
    def test_basic_write_and_overwrite(self, tmp_path):
        path = tmp_path / "out"
        atomic_write_bytes(path, b"first")
        assert path.read_bytes() == b"first"
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(tmp_path) == ["out"]  # no temp debris

    def test_kill_mid_write_preserves_old_version(self, tmp_path):
        path = tmp_path / "out"
        atomic_write_bytes(path, b"precious original")
        with pytest.raises(InjectedFault):
            atomic_write_bytes(
                path, b"half-written replacement",
                injector=FaultInjector(kill_after=4),
            )
        assert path.read_bytes() == b"precious original"
        # the simulated kill leaves its temp debris, as a real one would
        debris = [n for n in os.listdir(tmp_path) if n != "out"]
        assert len(debris) == 1 and debris[0].startswith("out.tmp.")

    def test_kill_before_first_version_leaves_nothing(self, tmp_path):
        path = tmp_path / "out"
        with pytest.raises(InjectedFault):
            atomic_write_bytes(path, b"data",
                               injector=FaultInjector(kill_after=0))
        assert not path.exists()

    def test_write_gmon_is_atomic_by_default(self, tmp_path):
        path = tmp_path / "gmon.out"
        write_gmon(_sample(), path)
        good = path.read_bytes()
        with pytest.raises(InjectedFault):
            write_gmon(_sample(), path,
                       injector=FaultInjector(kill_after=7))
        assert path.read_bytes() == good
        read_gmon(path)  # still a valid profile

    def test_non_atomic_write_produces_the_torn_file(self, tmp_path):
        """The pre-resilience failure mode, reproduced on demand."""
        path = tmp_path / "gmon.out"
        blob = dumps_gmon(_sample())
        write_gmon(_sample(), path, atomic=False,
                   injector=FaultInjector(truncate_at=len(blob) // 2))
        torn = path.read_bytes()
        assert torn == blob[: len(blob) // 2]
        with pytest.raises(GmonFormatError):
            read_gmon(path)
        data, report = read_gmon(path, mode="salvage")
        assert not report.clean  # recovered, and flagged


class TestFaultInjector:
    def test_passthrough_until_armed(self, tmp_path):
        path = tmp_path / "f"
        injector = FaultInjector(truncate_at=2, arm_on_call=3)
        for expected in (b"aaaa", b"bbbb", b"cc", b"dddd"):
            with open(path, "wb") as f:
                injector.write(f, expected.ljust(4, expected[:1]))
            if injector.calls == 3:
                assert path.read_bytes() == b"cc"
        assert injector.calls == 4

    def test_bit_flip_in_flight(self, tmp_path):
        path = tmp_path / "f"
        with open(path, "wb") as f:
            FaultInjector(flip=(1, 0)).write(f, b"\x00\x00\x00")
        assert path.read_bytes() == b"\x00\x01\x00"

    def test_dropped_chunk_shortens_payload(self, tmp_path):
        path = tmp_path / "f"
        with open(path, "wb") as f:
            FaultInjector(drop=(2, 3)).write(f, b"0123456789")
        assert path.read_bytes() == b"0156789"

    def test_corpus_helpers_are_deterministic(self):
        blob = bytes(range(32))
        cuts = list(all_truncations(blob))
        assert len(cuts) == 32
        assert cuts[5] == (5, blob[:5])
        flips_a = list(random_bit_flips(blob, 10, seed=42))
        flips_b = list(random_bit_flips(blob, 10, seed=42))
        assert flips_a == flips_b
        for offset, bit, mutated in flips_a:
            assert mutated != blob
            assert mutated[offset] == blob[offset] ^ (1 << bit)
        assert list(random_bit_flips(b"", 5)) == []


class _RecordingInjector(FaultInjector):
    """Passes writes through while keeping every payload for the test."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.payloads: list[bytes] = []

    def write(self, f, payload: bytes) -> None:
        self.payloads.append(payload)
        super().write(f, payload)


def _run_profiled(name: str, checkpoint_path, every: int,
                  injector: FaultInjector | None):
    """Assemble and run a canned program with checkpointing attached."""
    exe = assemble(PROGRAMS[name](), name=name, profile=True)
    monitor = Monitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=40)
    )
    monitor.enable_checkpoints(checkpoint_path, every, injector=injector)
    cpu = CPU(exe, monitor)
    cpu.run()
    return monitor


class TestMonitorCheckpoints:
    def test_periodic_flushes_leave_readable_file(self, tmp_path):
        path = tmp_path / "gmon.ckpt"
        recorder = _RecordingInjector(arm_on_call=10**9)
        monitor = _run_profiled("fib", path, every=5, injector=recorder)
        assert monitor.checkpoints_written >= 2
        data = monitor.mcleanup(comment="fib")
        # mcleanup flushed the final state: file == final data
        assert read_gmon(path).histogram.counts == data.histogram.counts
        assert recorder.payloads[-1] == path.read_bytes()

    def test_mid_write_kill_leaves_last_completed_flush(self, tmp_path):
        """The acceptance scenario: a run killed *during* a checkpoint
        write leaves a readable checkpoint whose flat profile matches
        the last flush that completed."""
        every = 5
        # Reference run: deterministic VM, record every flush payload.
        recorder = _RecordingInjector(arm_on_call=10**9)
        _run_profiled("fib", tmp_path / "ref.ckpt", every, recorder)
        total_flushes = len(recorder.payloads)
        assert total_flushes >= 3
        kill_on = total_flushes - 1  # die during the penultimate flush

        # Victim run: identical program, killed mid-write on flush K.
        path = tmp_path / "gmon.ckpt"
        killer = _RecordingInjector(arm_on_call=kill_on, kill_after=11)
        with pytest.raises(InjectedFault):
            _run_profiled("fib", path, every, killer)

        # The checkpoint is intact and equals the last *completed* flush.
        survivor = path.read_bytes()
        assert survivor == recorder.payloads[kill_on - 2]
        data = read_gmon(path)  # parses strictly: no torn bytes
        from repro.gmon import parse_gmon

        expected = parse_gmon(recorder.payloads[kill_on - 2])
        assert data.histogram.counts == expected.histogram.counts
        assert data.condensed_arcs() == expected.condensed_arcs()

    def test_checkpoints_via_monitor_config(self, tmp_path):
        path = tmp_path / "gmon.ckpt"
        exe = assemble(PROGRAMS["fib"](), name="fib", profile=True)
        monitor = Monitor(
            MonitorConfig(
                exe.low_pc, exe.high_pc, cycles_per_tick=40,
                checkpoint_path=str(path), checkpoint_interval=5,
            )
        )
        CPU(exe, monitor).run()
        assert monitor.checkpoints_written >= 1
        read_gmon(path)

    def test_bad_interval_rejected(self, tmp_path):
        monitor = Monitor(MonitorConfig(0, 100))
        with pytest.raises(ValueError, match="positive"):
            monitor.enable_checkpoints(tmp_path / "x", 0)


class TestKgmonCheckpoint:
    def test_checkpoint_while_kernel_runs(self, tmp_path):
        session = KernelSession(iterations=60)
        kgmon = Kgmon(session)
        session.run_slice(4)
        path = tmp_path / "kernel.ckpt.gmon"
        flushed = kgmon.checkpoint(path, comment="mid-flight")
        at_checkpoint = kgmon.status()
        assert not at_checkpoint.halted
        on_disk = read_gmon(path)
        assert on_disk.comment == "mid-flight"
        assert on_disk.histogram.counts == flushed.histogram.counts
        # the flush did not stop the kernel: its clock moves on
        session.run_slice(1)
        assert kgmon.status().kernel_cycles > at_checkpoint.kernel_cycles

    def test_kill_during_kgmon_checkpoint_keeps_previous(self, tmp_path):
        session = KernelSession(iterations=60)
        kgmon = Kgmon(session)
        session.run_slice(3)
        path = tmp_path / "kernel.ckpt.gmon"
        kgmon.checkpoint(path)
        good = path.read_bytes()
        assert session.run_slice(3)
        with pytest.raises(InjectedFault):
            kgmon.checkpoint(path, injector=FaultInjector(kill_after=9))
        assert path.read_bytes() == good

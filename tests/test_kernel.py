"""Tests for the simulated kernel and the kgmon interface."""

import pytest

from repro.core import AnalysisOptions, analyze
from repro.errors import KernelError
from repro.gmon import dumps_gmon
from repro.kernel import (
    CYCLE_CLOSING_ARCS,
    Kgmon,
    KernelSession,
    NETWORK_CYCLE,
    build_kernel_source,
)
from repro.machine.smp import reduce_shards


@pytest.fixture(scope="module")
def finished_session():
    session = KernelSession(iterations=300)
    session.run_to_completion()
    return session


class TestKernelProgram:
    def test_kernel_terminates(self, finished_session):
        assert finished_session.halted

    def test_build_validates_knobs(self):
        with pytest.raises(KernelError):
            build_kernel_source(loopback_every=1)
        with pytest.raises(KernelError):
            build_kernel_source(iterations=0)

    def test_network_stack_forms_one_big_cycle(self, finished_session):
        data = Kgmon(finished_session).extract()
        profile = analyze(data, finished_session.symbol_table())
        assert len(profile.numbered.cycles) == 1
        assert set(profile.numbered.cycles[0].members) == set(NETWORK_CYCLE)

    def test_closing_arcs_have_low_counts(self, finished_session):
        # "there were just a few arcs -- with low traversal counts --
        # that closed the cycles."
        data = Kgmon(finished_session).extract()
        profile = analyze(data, finished_session.symbol_table())
        graph = profile.graph
        closing = [graph.arc(a, b).count for a, b in CYCLE_CLOSING_ARCS]
        pipeline = graph.arc("ip_output", "if_output").count
        assert all(c < pipeline / 3 for c in closing)

    def test_removing_closing_arcs_unfuses_subsystems(self, finished_session):
        data = Kgmon(finished_session).extract()
        profile = analyze(
            data,
            finished_session.symbol_table(),
            AnalysisOptions(deleted_arcs=CYCLE_CLOSING_ARCS),
        )
        assert profile.numbered.cycles == []
        # With the stack unfused, each layer inherits its downstream.
        tcp_out = profile.entry("tcp_output")
        assert tcp_out.child_seconds > 0

    def test_heuristic_finds_the_closing_arcs(self, finished_session):
        data = Kgmon(finished_session).extract()
        profile = analyze(
            data,
            finished_session.symbol_table(),
            AnalysisOptions(auto_break_cycles=True, max_removed_arcs=4),
        )
        assert profile.numbered.cycles == []
        removed = {(r.caller, r.callee) for r in profile.removed_arcs}
        assert removed <= set(CYCLE_CLOSING_ARCS) | {("tcp_output", "ip_output")}
        assert len(removed) <= 2

    def test_device_interrupts_are_spontaneous(self, finished_session):
        # Device interrupts dispatch irq_device with no call site; its
        # profile entry must show a <spontaneous> parent and charge its
        # time to nobody (§3.1's anomalous invocations).
        data = Kgmon(finished_session).extract()
        profile = analyze(data, finished_session.symbol_table())
        entry = profile.entry("irq_device")
        (proc,) = finished_session.machine.procs
        assert entry.ncalls == proc.cpu.interrupts_delivered > 0
        assert entry.parents[0].name is None
        # but its *own* children are attributed normally
        assert {c.name for c in entry.children} == {"intr_ack"}

    def test_interrupts_can_be_disabled(self):
        session = KernelSession(iterations=50, device_interrupts=False)
        session.run_to_completion()
        assert session.machine.procs[0].cpu.interrupts_delivered == 0

    def test_scheduler_and_fs_not_in_cycle(self, finished_session):
        data = Kgmon(finished_session).extract()
        profile = analyze(data, finished_session.symbol_table())
        members = set(profile.numbered.cycles[0].members)
        for name in ("schedule", "fs_lookup", "disk_read", "hardclock"):
            assert name not in members


class TestKgmonControl:
    def test_off_gathers_nothing_kernel_still_runs(self):
        session = KernelSession(iterations=50)
        kgmon = Kgmon(session)
        kgmon.off()
        session.run_slice(3)
        status = kgmon.status()
        assert status.kernel_cycles > 0
        assert not status.halted
        assert status.ticks == 0
        assert status.calls == 0

    def test_on_off_window_captures_only_window(self):
        session = KernelSession(iterations=200)
        kgmon = Kgmon(session)
        kgmon.off()
        session.run_slice(6)
        kgmon.on()
        session.run_slice(6)
        kgmon.off()
        mid = kgmon.status()
        assert not mid.halted
        session.run_to_completion()
        after = kgmon.status()
        assert after.ticks == mid.ticks  # nothing gathered after 'off'
        assert mid.ticks > 0

    def test_extract_does_not_disturb_gathering(self):
        session = KernelSession(iterations=200)
        kgmon = Kgmon(session)
        session.run_slice(6)
        assert not session.halted
        first = kgmon.extract("w1")
        session.run_to_completion()
        second = kgmon.extract("w2")
        assert second.total_ticks >= first.total_ticks
        assert first.comment == "w1"

    def test_reset_starts_fresh_window(self):
        # A reset clears shard data, never a process's cost table, so
        # the windows partition the run: merged, they are its bytes.
        for ncpus in (1, 2):
            session = KernelSession(ncpus=ncpus, iterations=300)
            kgmon = Kgmon(session)
            session.run_slice(8)
            assert not session.halted
            before = kgmon.extract("before")
            kgmon.reset()
            assert kgmon.status().ticks == 0
            session.run_to_completion()
            window = kgmon.extract("after")
            assert before.total_ticks > 0 and window.total_ticks > 0
            merged = reduce_shards([before, window], comment="run", runs=ncpus)
            unsliced = KernelSession(ncpus=ncpus, iterations=300)
            unsliced.run_to_completion()
            whole = Kgmon(unsliced).extract("run")
            assert dumps_gmon(merged) == dumps_gmon(whole)

    def test_status_matches_the_extracted_window(self):
        # An arc taken on several CPUs is one arc of the merged window.
        for ncpus in (1, 4):
            session = KernelSession(ncpus=ncpus, iterations=100)
            session.run_to_completion()
            kgmon = Kgmon(session)
            status, window = kgmon.status(), kgmon.extract()
            assert status.arcs == len(window.arcs) == 29
            assert status.calls == window.total_calls
            assert status.ticks == window.total_ticks

    def test_extract_before_running_rejected(self):
        session = KernelSession(iterations=10)
        with pytest.raises(KernelError):
            Kgmon(session).extract()

    def test_windows_are_analyzable_separately(self):
        # The kernel-profiling workflow: profile an activity window and
        # analyze it offline while the system keeps running.
        session = KernelSession(iterations=400)
        kgmon = Kgmon(session)
        session.run_slice(13)
        kgmon.reset()  # discard warm-up
        session.run_slice(13)
        window = kgmon.extract("steady state")
        profile = analyze(window, session.symbol_table())
        assert profile.total_seconds > 0
        assert not session.halted  # the "system" never went down


class TestProfVsGprofOnKernel:
    def test_prof_cannot_separate_but_gprof_can(self, finished_session):
        from repro.baseline import prof_analyze

        data = Kgmon(finished_session).extract()
        symbols = finished_session.symbol_table()
        rows = prof_analyze(data, symbols)
        # prof: syscall shows tiny self time despite causing most work.
        syscall_row = next(r for r in rows if r.name == "syscall")
        assert syscall_row.percent < 15.0
        # gprof: syscall's entry shows the inherited cost.
        profile = analyze(data, symbols)
        entry = profile.entry("syscall")
        assert entry.percent > 30.0
        assert entry.child_seconds > entry.self_seconds

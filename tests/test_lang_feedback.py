"""Tests for the PGO feedback layer: profile → AST-level facts."""

import pytest

from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.lang import feedback_from_data, feedback_from_profile, optimize
from repro.lang.codegen import generate, generate_mapped
from repro.lang.feedback import ProfileFeedback
from repro.lang.parser import parse
from repro.lang.passes import CompileState, build_pipeline
from repro.lang.programs import REL_PROGRAMS
from repro.machine import Monitor, MonitorConfig, assemble, make_cpu
from repro.trace import PipelineTrace, run_stages

CYCLES_PER_TICK = 50


def measure(source: str):
    """Compile profiled+mapped, run once, return the whole evidence."""
    program = parse(source)
    asm, smap = generate_mapped(program)
    exe = assemble(asm, name="t", profile=True)
    monitor = Monitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=CYCLES_PER_TICK)
    )
    cpu = make_cpu(exe, monitor)
    cpu.run()
    return program, exe, smap, monitor.mcleanup()


def feedback_for(source: str) -> ProfileFeedback:
    program, exe, smap, data = measure(source)
    return ProfileFeedback.from_measurement(
        program, exe, smap, data, CYCLES_PER_TICK
    )


class TestArcCounts:
    def test_abstraction_arcs_match_source_structure(self):
        # 50 loop iterations: calc1->format1 x50, calc2/calc3->format2,
        # every path funnels into write (150 calls).
        fb = feedback_for(REL_PROGRAMS["abstraction"]())
        assert fb.calls("calc1", "format1") == 50
        assert fb.calls("calc2", "format2") == 50
        assert fb.calls("calc3", "format2") == 50
        assert fb.calls("format1", "write") == 50
        assert fb.calls("format2", "write") == 100
        assert fb.calls_into("write") == 150
        assert fb.calls_into("main") == 1  # spontaneous program entry
        assert not fb.stale and not fb.empty

    def test_section4_masses_are_conserved(self):
        # Σ self over routines == total program time (§4: every sampled
        # tick belongs to exactly one routine's self time).
        fb = feedback_for(REL_PROGRAMS["abstraction"]())
        assert fb.profile is not None
        assert sum(fb.self_sec.values()) == pytest.approx(
            fb.profile.total_seconds
        )
        # main transitively holds (almost) everything.
        assert fb.total_seconds("main") == pytest.approx(
            fb.profile.total_seconds, rel=0.05
        )


class TestCycles:
    def test_even_odd_cycle_detected_and_mass_counted_once(self):
        fb = feedback_for(REL_PROGRAMS["even_odd"]())
        groups = [g for g in fb.cycle_groups if "even" in g]
        assert groups and set(groups[0]) == {"even", "odd"}
        # §4 cycle discipline: members share the cycle's mass — summing
        # their self times must not exceed the whole program's time.
        assert sum(fb.self_sec.values()) == pytest.approx(
            fb.profile.total_seconds
        )

    def test_layout_keeps_cycle_members_adjacent(self):
        source = REL_PROGRAMS["even_odd"]()
        program, exe, smap, data = measure(source)
        fb = ProfileFeedback.from_measurement(
            program, exe, smap, data, CYCLES_PER_TICK
        )
        optimized = optimize(program, level=0, profile=fb)
        order = [fn.name for fn in optimized.functions]
        assert abs(order.index("even") - order.index("odd")) == 1
        # adjacency in declaration order within the group
        assert order.index("even") < order.index("odd")


class TestStaleProfiles:
    def test_profile_of_other_program_is_stale(self):
        # classify's gmon fed to sieve: never a wrong layout, always a
        # flagged no-op.
        _, _, _, data = measure(REL_PROGRAMS["classify"]())
        fb = feedback_from_data(
            REL_PROGRAMS["sieve"](), data, cycles_per_tick=CYCLES_PER_TICK
        )
        assert fb.stale and fb.empty
        assert fb.warnings
        assert "stale" in fb.describe()

    def test_stale_profile_optimizes_to_identity(self):
        _, _, _, data = measure(REL_PROGRAMS["classify"]())
        program = parse(REL_PROGRAMS["sieve"]())
        stale = feedback_from_data(
            REL_PROGRAMS["sieve"](), data, cycles_per_tick=CYCLES_PER_TICK
        )
        assert generate(optimize(program, level=1, profile=stale)) == generate(
            optimize(program, level=1)
        )

    def test_same_program_different_size_is_stale(self):
        # Same source family, different build (histogram bounds move).
        _, _, _, data = measure(REL_PROGRAMS["classify"](rounds=300))
        fb = feedback_from_data(
            REL_PROGRAMS["classify"](rounds=299) + "\nfunc pad() { return 1; }",
            data,
            cycles_per_tick=CYCLES_PER_TICK,
        )
        assert fb.stale

    def test_name_level_staleness(self):
        fb_ok = feedback_for(REL_PROGRAMS["abstraction"]())
        other = parse(REL_PROGRAMS["sieve"]())
        fb = feedback_from_profile(fb_ok.profile, other)
        assert fb.stale and fb.warnings


class TestZeroSampleProfiles:
    def _empty_data(self, exe) -> ProfileData:
        nbuckets = (exe.high_pc - exe.low_pc) // 4
        hist = Histogram(exe.low_pc, exe.high_pc, [0] * nbuckets, 60)
        return ProfileData(hist, [], comment="empty")

    def test_zero_sample_profile_is_empty_not_stale(self):
        program, exe, smap, _ = measure(REL_PROGRAMS["classify"]())
        fb = ProfileFeedback.from_measurement(
            program, exe, smap, self._empty_data(exe), CYCLES_PER_TICK
        )
        assert not fb.stale
        assert fb.empty
        assert "identity transform" in fb.describe()

    def test_zero_sample_profile_is_identity_transform(self):
        program, exe, smap, _ = measure(REL_PROGRAMS["classify"]())
        fb = ProfileFeedback.from_measurement(
            program, exe, smap, self._empty_data(exe), CYCLES_PER_TICK
        )
        state, trace = CompileState(program, fb), PipelineTrace()
        run_stages(build_pipeline(0, fb), state, trace)
        assert generate(state.program) == generate(program)
        assert trace.counters() == {}


class TestDeterminismAndNameLevelPath:
    def test_feedback_is_deterministic_for_fixed_data(self):
        program, exe, smap, data = measure(REL_PROGRAMS["sieve"]())
        fb1 = ProfileFeedback.from_measurement(
            program, exe, smap, data, CYCLES_PER_TICK
        )
        fb2 = ProfileFeedback.from_measurement(
            program, exe, smap, data, CYCLES_PER_TICK
        )
        assert fb1.branch_hints == fb2.branch_hints
        assert fb1.arc_counts == fb2.arc_counts
        out1 = optimize(program, level=0, profile=fb1)
        out2 = optimize(program, level=0, profile=fb2)
        assert generate(out1) == generate(out2)

    def test_name_level_path_has_counts_but_no_branch_hints(self):
        source = REL_PROGRAMS["abstraction"]()
        exact = feedback_for(source)
        fb = feedback_from_profile(exact.profile, parse(source))
        assert not fb.stale
        assert fb.calls("format1", "write") == 50
        assert fb.branch_hints == {}  # addresses are gone on this path

    def test_classify_gets_a_swap_hint(self):
        # The canned skew workload exists to exercise exactly this.
        fb = feedback_for(REL_PROGRAMS["classify"]())
        assert any(
            fname == "weigh" and verdict == "swap"
            for (fname, _), verdict in fb.branch_hints.items()
        )

    def test_sieve_gets_a_rotate_hint(self):
        fb = feedback_for(REL_PROGRAMS["sieve"]())
        assert "rotate" in fb.branch_hints.values()

"""Tests for projecting stack samples onto classic profile data."""

import pytest

from repro.core import analyze
from repro.machine.programs import even_odd, skewed
from repro.report import format_graph_profile
from repro.stacks import StackProfile, analyze_stacks
from repro.stacks.convert import as_profile_data
from repro.stacks.vm import run_stack_profiled


class TestProjection:
    def _toy(self):
        p = StackProfile(profrate=100)
        for _ in range(6):
            p.record(("main", "a", "leaf"))
        for _ in range(3):
            p.record(("main", "b", "leaf"))
        p.record(("main",))
        return p

    def test_histogram_holds_leaf_ticks(self):
        data, symbols = as_profile_data(self._toy())
        times = data.histogram.time_for_symbols(symbols)
        assert times["leaf"] == pytest.approx(0.09)
        assert times["main"] == pytest.approx(0.01)
        assert data.total_ticks == 10

    def test_arcs_carry_coresidence_counts(self):
        data, symbols = as_profile_data(self._toy())
        profile = analyze(data, symbols)
        leaf = profile.entry("leaf")
        parents = {p.name: p.count for p in leaf.parents}
        assert parents == {"a": 6, "b": 3}

    def test_roots_are_spontaneous(self):
        data, symbols = as_profile_data(self._toy())
        profile = analyze(data, symbols)
        main = profile.entry("main")
        assert main.parents[0].name is None
        assert main.percent == pytest.approx(100.0)

    def test_caveat_recorded_in_comment(self):
        data, _ = as_profile_data(self._toy())
        assert "not calls" in data.comment

    def test_recursive_stack_edges_deduplicated(self):
        p = StackProfile(100)
        p.record(("a", "b", "a", "b"))
        data, symbols = as_profile_data(p)
        profile = analyze(data, symbols)
        arc = profile.graph.arc("a", "b")
        assert arc.count == 1  # one sample, one co-residence


class TestAttributionQuality:
    def test_projection_dodges_the_average_time_pitfall(self):
        # Classic propagation over co-residence weights approximates the
        # stack-exact attribution: the skewed workload's two callers
        # come out near 50/50 instead of 99/1.
        cpu, stacks = run_stack_profiled(skewed(), "skewed", cycles_per_tick=7)
        data, symbols = as_profile_data(stacks)
        profile = analyze(data, symbols)
        work = profile.entry("work_n")
        shares = {
            p.name: p.self_share + p.child_share for p in work.parents
        }
        total = sum(shares.values())
        assert 0.3 < shares["dear_caller"] / total < 0.6

    def test_figure4_style_listing_renders_on_stack_data(self):
        cpu, stacks = run_stack_profiled(even_odd(25), "eo", cycles_per_tick=3)
        data, symbols = as_profile_data(stacks)
        profile = analyze(data, symbols)
        text = format_graph_profile(profile)
        assert "even" in text
        assert "<cycle 1 as a whole>" in text  # recursion still collapses

    def test_totals_agree_with_stack_analysis(self):
        cpu, stacks = run_stack_profiled(even_odd(25), "eo", cycles_per_tick=3)
        data, symbols = as_profile_data(stacks)
        profile = analyze(data, symbols)
        an = analyze_stacks(stacks)
        assert profile.total_seconds == pytest.approx(stacks.total_seconds)
        # self time per routine identical (leaf ticks either way)
        for name in stacks.routines():
            entry = profile.entry(name)
            assert entry.self_seconds == pytest.approx(
                an.exclusive_seconds(name)
            )

"""Tests for the flat and call-graph listings (§5)."""

import pytest

from repro.core import AnalysisOptions, analyze
from repro.core.filters import reaching
from repro.report import format_flat_profile, format_graph_profile
from repro.report.fields import calls_fraction, calls_with_self, percent, seconds

from tests.helpers import make_symbols, profile_data


@pytest.fixture()
def profile():
    symbols = make_symbols("main", "hot", "warm", "cold", "unused")
    data = profile_data(
        symbols,
        [
            ("<spontaneous>", "main", 1),
            ("main", "hot", 5),
            ("main", "warm", 5),
            ("main", "cold", 1),
            ("hot", "hot", 3),
        ],
        ticks={"hot": 360, "warm": 180, "cold": 6, "main": 54},
    )
    return analyze(data, symbols)


class TestFields:
    def test_seconds(self):
        assert seconds(1.2345) == "1.23"

    def test_percent(self):
        assert percent(41.52) == "41.5"

    def test_calls_fraction(self):
        assert calls_fraction(4, 10) == "4/10"

    def test_calls_with_self(self):
        assert calls_with_self(10, 4) == "10+4"
        assert calls_with_self(10, 0) == "10"


class TestFlatListing:
    def test_rows_in_self_time_order(self, profile):
        text = format_flat_profile(profile)
        assert text.index("hot") < text.index("warm") < text.index("cold")

    def test_total_header(self, profile):
        assert "total: 10.00 seconds" in format_flat_profile(profile)

    def test_never_called_section(self, profile):
        text = format_flat_profile(profile)
        assert "routines never called:" in text
        assert "unused" in text

    def test_never_called_suppressible(self, profile):
        text = format_flat_profile(profile, show_never_called=False)
        assert "unused" not in text

    def test_min_percent_filters_rows(self, profile):
        text = format_flat_profile(profile, min_percent=5.0)
        assert "cold" not in text
        assert "hot" in text

    def test_cumulative_column_monotonic(self, profile):
        rows = [
            line
            for line in format_flat_profile(profile).splitlines()
            if line and line[0:5].strip().replace(".", "").isdigit()
        ]
        cums = [float(r.split()[1]) for r in rows]
        assert cums == sorted(cums)


class TestGraphListing:
    def test_contains_primary_lines_with_indices(self, profile):
        text = format_graph_profile(profile)
        for entry in profile.graph_entries:
            assert f"[{entry.index}]" in text

    def test_self_recursion_notation(self, profile):
        assert "5+3" in format_graph_profile(profile)

    def test_spontaneous_parent_shown(self, profile):
        assert "<spontaneous>" in format_graph_profile(profile)

    def test_min_percent_filter(self, profile):
        text = format_graph_profile(profile, min_percent=5.0)
        assert "cold" not in text.replace("cold [", "X [")  # no cold entry
        assert "hot" in text

    def test_only_filter_with_reaching(self, profile):
        # Show only the part of the graph above 'warm' (§6 navigation).
        keep = reaching(profile.graph, ["warm"])
        text = format_graph_profile(profile, only=keep)
        assert "warm" in text
        # 'hot' only appears as a child line of main, never as an entry.
        assert not any(line.startswith("[2]") for line in text.splitlines())
        main_entry = text.split("-" * 72)[0].splitlines()
        assert any(
            line.endswith(" hot [2]") and not line.startswith("[")
            for line in main_entry
        )

    def test_removed_arcs_reported(self):
        symbols = make_symbols("m", "x", "y")
        data = profile_data(
            symbols,
            [("m", "x", 50), ("x", "y", 50), ("y", "x", 2)],
            ticks={"x": 30, "y": 30},
        )
        prof = analyze(data, symbols, AnalysisOptions(auto_break_cycles=True))
        text = format_graph_profile(prof)
        assert "arcs removed from the analysis" in text
        assert "y -> x  (2 calls)" in text

    def test_empty_profile_renders(self):
        symbols = make_symbols("main")
        prof = analyze(profile_data(symbols, []), symbols)
        text = format_graph_profile(prof)
        assert "(no entries above threshold)" in text

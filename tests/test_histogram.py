"""Unit and property tests for repro.core.histogram."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.histogram import Histogram, sum_histograms
from repro.core.symbols import Symbol, SymbolTable
from repro.errors import HistogramError

from tests.helpers import make_symbols


class TestGeometry:
    def test_for_range_one_to_one(self):
        h = Histogram.for_range(0, 400, scale=1.0)
        assert h.num_buckets == 400
        assert h.bucket_width == 1.0

    def test_for_range_coarse(self):
        # The 16-bit-era configuration: fewer buckets than addresses.
        h = Histogram.for_range(0, 400, scale=0.25)
        assert h.num_buckets == 100
        assert h.bucket_width == 4.0

    def test_empty_range(self):
        h = Histogram.for_range(0, 0)
        assert h.num_buckets == 0
        assert h.total_ticks == 0

    def test_invalid_scale(self):
        with pytest.raises(HistogramError):
            Histogram.for_range(0, 100, scale=0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(HistogramError):
            Histogram(100, 0, [0])

    def test_negative_count_rejected(self):
        with pytest.raises(HistogramError):
            Histogram(0, 4, [1, -2, 0, 0])

    def test_bad_profrate_rejected(self):
        with pytest.raises(HistogramError):
            Histogram(0, 4, [0, 0, 0, 0], profrate=0)


class TestRecording:
    def test_record_in_and_out_of_range(self):
        h = Histogram.for_range(100, 200)
        assert h.record(100) is True
        assert h.record(199) is True
        assert h.record(200) is False
        assert h.record(50) is False
        assert h.total_ticks == 2

    def test_bucket_for_maps_upper_edge_down(self):
        h = Histogram(0, 10, [0, 0, 0])  # width 10/3
        assert h.bucket_for(9) == 2
        assert h.bucket_for(0) == 0

    def test_total_time_uses_profrate(self):
        h = Histogram.for_range(0, 10, profrate=100)
        for _ in range(250):
            h.record(5)
        assert h.total_time == pytest.approx(2.5)

    def test_reset(self):
        h = Histogram.for_range(0, 10)
        h.record(3)
        h.reset()
        assert h.total_ticks == 0

    def test_copy_is_independent(self):
        h = Histogram.for_range(0, 10)
        c = h.copy()
        h.record(3)
        assert c.total_ticks == 0


class TestAssignSamples:
    def test_exact_when_one_to_one(self):
        syms = make_symbols("a", "b")  # a: [0,100), b: [100,200)
        h = Histogram.for_range(0, 200, scale=1.0, profrate=60)
        for _ in range(30):
            h.record(10)
        for _ in range(60):
            h.record(150)
        times = h.time_for_symbols(syms)
        assert times["a"] == pytest.approx(0.5)
        assert times["b"] == pytest.approx(1.0)

    def test_coarse_bucket_split_between_symbols(self):
        # One bucket spanning two routines is split by overlap (like
        # gprof's asgnsamples).
        syms = SymbolTable([Symbol(0, "a", 5), Symbol(5, "b", 10)])
        h = Histogram(0, 10, [60], profrate=60)  # a single bucket
        times = h.time_for_symbols(syms)
        assert times["a"] == pytest.approx(0.5)
        assert times["b"] == pytest.approx(0.5)

    def test_samples_outside_symbols_dropped(self):
        syms = SymbolTable([Symbol(0, "a", 10)])
        h = Histogram.for_range(0, 100, scale=1.0, profrate=60)
        h.record(5)
        h.record(50)  # outside 'a'
        times = h.time_for_symbols(syms)
        assert times == {"a": pytest.approx(1 / 60)}

    def test_empty_histogram(self):
        syms = make_symbols("a")
        assert Histogram.for_range(0, 0).time_for_symbols(syms) == {}

    def test_conservation_when_fully_covered(self):
        syms = make_symbols("a", "b", "c")
        h = Histogram.for_range(0, 300, scale=0.1, profrate=60)
        for pc in range(0, 300, 7):
            h.record(pc)
        times = h.time_for_symbols(syms)
        assert sum(times.values()) == pytest.approx(h.total_time)


class TestSum:
    def test_sum_accumulates(self):
        a = Histogram.for_range(0, 10)
        b = Histogram.for_range(0, 10)
        a.record(3)
        b.record(3)
        b.record(7)
        total = sum_histograms([a, b])
        assert total.total_ticks == 3
        # inputs untouched
        assert a.total_ticks == 1

    def test_sum_incompatible_rejected(self):
        a = Histogram.for_range(0, 10)
        b = Histogram.for_range(0, 20)
        with pytest.raises(HistogramError):
            sum_histograms([a, b])

    def test_sum_different_profrate_rejected(self):
        a = Histogram.for_range(0, 10, profrate=60)
        b = Histogram.for_range(0, 10, profrate=100)
        with pytest.raises(HistogramError):
            sum_histograms([a, b])

    def test_sum_empty_list_rejected(self):
        with pytest.raises(HistogramError):
            sum_histograms([])


@given(
    st.lists(st.integers(min_value=0, max_value=299), min_size=1, max_size=200),
    st.sampled_from([1.0, 0.5, 0.25, 0.1]),
)
def test_no_ticks_lost_inside_range(pcs, scale):
    """Property: every in-range sample lands in exactly one bucket."""
    h = Histogram.for_range(0, 300, scale=scale)
    for pc in pcs:
        assert h.record(pc)
    assert h.total_ticks == len(pcs)


@given(st.lists(st.integers(min_value=0, max_value=299), min_size=1, max_size=200))
def test_assignment_conserves_time(pcs):
    """Property: with full symbol coverage, apportioned time equals
    sampled time regardless of histogram granularity."""
    syms = make_symbols("a", "b", "c")
    h = Histogram.for_range(0, 300, scale=0.13, profrate=60)
    for pc in pcs:
        h.record(pc)
    times = h.time_for_symbols(syms)
    assert sum(times.values()) == pytest.approx(h.total_time)

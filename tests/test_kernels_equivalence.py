"""Property suite: both fold paths and both apportion evaluators agree.

The claim of :mod:`repro.core.kernels` is not "close enough" — it is
that whether numpy imports can never change a single output byte, and
that the production apportionment is the reference's, bit for bit.
These tests generate adversarial inputs (random layouts, non-power-of-
two bucket widths, empty histograms, zero-arc files, counts at the
u32 ceiling) and assert:

1. **wire bytes**: merging a fleet through :class:`ProfileAccumulator`
   on the production folds, and again with numpy hidden (the reference
   folds), yields ``gmon`` bytes byte-identical to the independent
   ``merge_profiles`` fold;
2. **apportionment**: the production prefix-sum evaluator equals
   ``apportion_python`` bit for bit, and agrees with the historical
   per-bucket formula to ≤1e-9 relative — the one place the kernels
   deliberately reassociate a float sum (see
   ``repro/core/kernels/spans.py`` for why bit-identity with the
   reference still holds exactly).

Analysis (apportion and propagate) runs the same code with numpy or
without, so the listings need no cross-path property.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Histogram,
    ProfileData,
    RawArc,
    Symbol,
    SymbolTable,
    merge_profiles,
)
from repro.core import kernels
from repro.core.kernels.spans import apportion, apportion_python, build_spans
from repro.fleet import ProfileAccumulator
from repro.gmon import dumps_gmon, parse_gmon

U32 = 0xFFFFFFFF

# -- strategies --------------------------------------------------------------

#: Histogram layouts, deliberately including non-power-of-two bucket
#: widths (width 3, 7, 13...) and the degenerate zero-bucket layout.
layouts = st.tuples(
    st.integers(min_value=0, max_value=1 << 16),          # low_pc
    st.integers(min_value=0, max_value=24),               # nbuckets
    st.integers(min_value=1, max_value=19),               # bucket width
    st.sampled_from([60, 100, 1000]),                     # profrate
)


@st.composite
def fleets(draw):
    """A same-layout fleet of 1-4 wire profiles (bytes), plus metadata.

    Counts are scaled so the merged sums stay within the wire's u32
    ceiling, but single-profile fleets can carry counts at exactly
    ``0xFFFFFFFF``.
    """
    low, nbuckets, width, profrate = draw(layouts)
    high = low + nbuckets * width
    k = draw(st.integers(min_value=1, max_value=4))
    ceiling = U32 // k
    blobs = []
    for _ in range(k):
        counts = draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=64),
                    st.integers(min_value=ceiling - 3, max_value=ceiling),
                ),
                min_size=nbuckets,
                max_size=nbuckets,
            )
        )
        arcs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=1 << 40),
                    st.integers(min_value=0, max_value=1 << 40),
                    st.integers(min_value=0, max_value=ceiling),
                ),
                max_size=6,
                # unique call sites per profile: condensing duplicates
                # could push a merged count past the wire's u32 ceiling
                unique_by=lambda t: (t[0], t[1]),
            )
        )
        data = ProfileData(
            Histogram(low, high, counts, profrate),
            [RawArc(f, s, c) for f, s, c in arcs],
            runs=draw(st.integers(min_value=1, max_value=3)),
        )
        blobs.append(dumps_gmon(data))
    return blobs


@st.composite
def images(draw):
    """A random symbol table + a sampled profile over it.

    Symbol sizes are arbitrary (not bucket-aligned), the histogram
    scale varies, so bucket/symbol overlap produces plenty of
    fractional-weight edges.
    """
    nsyms = draw(st.integers(min_value=1, max_value=6))
    sizes = draw(
        st.lists(
            st.integers(min_value=3, max_value=90),
            min_size=nsyms,
            max_size=nsyms,
        )
    )
    addr = draw(st.integers(min_value=0, max_value=1000))
    syms = []
    for i, size in enumerate(sizes):
        syms.append(Symbol(addr, f"f{i}", addr + size))
        addr += size
    symbols = SymbolTable(syms)
    scale = draw(st.sampled_from([1.0, 0.5, 0.375, 0.21, 0.07]))
    hist = Histogram.for_range(symbols.low_pc, symbols.high_pc, scale, 100)
    nticks = draw(st.integers(min_value=0, max_value=24))
    for _ in range(nticks):
        pc = draw(
            st.integers(min_value=symbols.low_pc, max_value=symbols.high_pc - 1)
        )
        hist.record(pc)
    arcs = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        caller = syms[draw(st.integers(0, nsyms - 1))]
        callee = syms[draw(st.integers(0, nsyms - 1))]
        count = draw(st.integers(min_value=1, max_value=50))
        arcs.append(RawArc(caller.address + 1, callee.address, count))
    return symbols, ProfileData(hist, arcs, runs=1)


# -- level 1: wire bytes -----------------------------------------------------


def merged_bytes(blobs: list[bytes], with_numpy: bool) -> bytes:
    """Fold ``blobs`` on the production folds, or with numpy hidden."""
    have_numpy = kernels.HAVE_NUMPY and with_numpy
    with mock.patch.object(kernels, "HAVE_NUMPY", have_numpy):
        acc = ProfileAccumulator()
        for blob in blobs:
            acc.add(blob)
        return dumps_gmon(acc.result())


@given(fleets())
@settings(deadline=None, max_examples=60)
def test_merged_gmon_bytes_identical_across_backends(blobs):
    reference = dumps_gmon(merge_profiles([parse_gmon(b) for b in blobs]))
    for with_numpy in (True, False):
        assert merged_bytes(blobs, with_numpy) == reference, with_numpy


def test_empty_histogram_and_zero_arc_files_round_trip():
    """The degenerate shapes: no buckets, no arcs, still byte-equal."""
    empty_hist = dumps_gmon(ProfileData(Histogram(64, 64, [], 100), [], runs=1))
    zero_arcs = dumps_gmon(
        ProfileData(Histogram(0, 8, [U32, 0], 60), [], runs=2)
    )
    half = dumps_gmon(
        ProfileData(Histogram(0, 8, [U32 // 2, 7], 60), [], runs=1)
    )
    for blobs in ([empty_hist, empty_hist], [zero_arcs], [half, half]):
        reference = dumps_gmon(merge_profiles([parse_gmon(b) for b in blobs]))
        for with_numpy in (True, False):
            assert merged_bytes(blobs, with_numpy) == reference


# -- level 2: apportionment vs the reference and the historical formula ------


def historical_assign(hist: Histogram, symbols: SymbolTable):
    """The pre-kernels per-bucket loop, transcribed for comparison."""
    times: dict[str, float] = {}
    if not hist.counts:
        return times
    width = hist.bucket_width
    sec = hist.seconds_per_tick
    for sym in symbols:
        if sym.end <= hist.low_pc or sym.address >= hist.high_pc:
            continue
        first = max(int((sym.address - hist.low_pc) / width) - 1, 0)
        last = min(
            int((sym.end - hist.low_pc) / width) + 1, hist.num_buckets - 1
        )
        acc = 0.0
        for idx in range(first, last + 1):
            b_lo = hist.low_pc + idx * width
            overlap = min(b_lo + width, sym.end) - max(b_lo, sym.address)
            if overlap > 0:
                acc += hist.counts[idx] * (overlap / width)
        if acc:
            times[sym.name] = acc * sec
    return times


@given(images())
@settings(deadline=None, max_examples=60)
def test_span_evaluation_matches_historical_formula(image):
    symbols, data = image
    hist = data.histogram
    expected = historical_assign(hist, symbols)
    spans = build_spans(
        hist.low_pc, hist.high_pc, hist.num_buckets, symbols
    )
    got = apportion(spans, hist.counts, hist.seconds_per_tick)
    assert got.keys() == expected.keys()
    for routine, want in expected.items():
        assert got[routine] == pytest.approx(want, rel=1e-9), routine


@given(images())
@settings(deadline=None, max_examples=40)
def test_histogram_time_for_symbols_matches_reference(image):
    """The public entry point equals the reference evaluator bitwise."""
    symbols, data = image
    hist = data.histogram
    spans = build_spans(
        hist.low_pc, hist.high_pc, hist.num_buckets, symbols
    )
    reference = apportion_python(spans, hist.counts, hist.seconds_per_tick)
    got = hist.time_for_symbols(symbols)
    assert list(got.items()) == list(reference.items())

"""Property tests for the merge algebra.

§3's multi-run accumulation only scales to fleets if merging is a
well-behaved algebra: associative (so a tree of partial merges equals
the sequential fold), commutative on the measurements (so arrival
order cannot change a count), with an identity (the empty profile) and
a no-surprises failure mode (mismatched layouts raise
:class:`~repro.errors.MergeError`, never ``KeyError``/``IndexError``).
These tests pin each law down with hypothesis-generated profiles, for
both the legacy :func:`merge_profiles` API and the streaming
:class:`~repro.fleet.ProfileAccumulator` that fleet merging runs on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Histogram, ProfileData, RawArc, merge_profiles
from repro.errors import MergeError, ReproError
from repro.fleet import ProfileAccumulator, empty_profile_like
from repro.gmon import dumps_gmon, parse_gmon, read_gmon, write_gmon

# -- strategies ------------------------------------------------------------------

#: One shared histogram layout per generated fleet: profiles are only
#: summable when they come from the same executable image.
layouts = st.tuples(
    st.integers(min_value=0, max_value=1 << 20),   # low_pc
    st.integers(min_value=1, max_value=32),        # nbuckets
    st.integers(min_value=1, max_value=16),        # bucket width
    st.sampled_from([60, 100, 1000]),              # profrate
)


def profile_for(layout, draw_counts, draw_arcs, runs, comment):
    low, nbuckets, width, profrate = layout
    high = low + nbuckets * width
    arcs = [RawArc(f, s, c) for (f, s, c) in draw_arcs]
    return ProfileData(
        Histogram(low, high, list(draw_counts), profrate),
        arcs,
        runs=runs,
        comment=comment,
    )


@st.composite
def fleets(draw, min_size=1, max_size=6):
    """A list of mutually-compatible ProfileData."""
    layout = draw(layouts)
    low, nbuckets, width, _ = layout
    high = low + nbuckets * width
    addr = st.integers(min_value=low, max_value=high - 1)
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    out = []
    for i in range(n):
        counts = draw(
            st.lists(st.integers(min_value=0, max_value=50),
                     min_size=nbuckets, max_size=nbuckets)
        )
        arcs = draw(
            st.lists(st.tuples(addr, addr,
                               st.integers(min_value=0, max_value=40)),
                     max_size=8)
        )
        runs = draw(st.integers(min_value=1, max_value=4))
        comment = draw(st.sampled_from(["", f"run-{i}", "batch"]))
        out.append(profile_for(layout, counts, arcs, runs, comment))
    return out


def measurements(data: ProfileData):
    """The order-insensitive content of a profile."""
    return (
        data.histogram.counts,
        data.condensed_arcs(),
        data.runs,
        sorted(data.warnings),
    )


# -- the algebra -----------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(fleets(min_size=2), st.randoms(use_true_random=False))
def test_merge_is_commutative_on_measurements(profiles, rng):
    """Any arrival order yields the same counts, arcs and runs.

    (The provenance comment is deliberately order-sensitive — it is a
    log, not a measurement — so byte-identity is only promised for
    identical input order; see the associativity test.)
    """
    shuffled = list(profiles)
    rng.shuffle(shuffled)
    assert measurements(merge_profiles(shuffled)) == measurements(
        merge_profiles(profiles)
    )


@settings(deadline=None, max_examples=60)
@given(fleets(min_size=2), st.data())
def test_merge_is_associative_byte_for_byte(profiles, data):
    """Any regrouping of the ordered sequence is byte-identical."""
    k = data.draw(st.integers(min_value=1, max_value=len(profiles) - 1))
    grouped = merge_profiles(
        [merge_profiles(profiles[:k]), merge_profiles(profiles[k:])]
    )
    flat = merge_profiles(profiles)
    assert dumps_gmon(grouped) == dumps_gmon(flat)


@settings(deadline=None, max_examples=60)
@given(fleets())
def test_empty_profile_is_the_identity(profiles):
    flat = merge_profiles(profiles)
    identity = empty_profile_like(flat)
    assert dumps_gmon(merge_profiles(profiles + [identity])) == dumps_gmon(flat)
    assert dumps_gmon(merge_profiles([identity] + profiles)) == dumps_gmon(flat)


@settings(deadline=None, max_examples=60)
@given(fleets(min_size=1, max_size=1))
def test_single_element_merge_copies_not_mutates(profiles):
    """merge([p]) equals p (condensed) and shares no mutable state."""
    p = profiles[0]
    before = dumps_gmon(p)
    merged = merge_profiles([p])
    assert merged.runs == p.runs
    assert merged.comment == p.comment
    assert merged.histogram.counts == p.histogram.counts
    assert merged.condensed_arcs() == p.condensed_arcs()
    # mutating the result must never reach back into the input
    assert merged.histogram is not p.histogram
    assert merged.histogram.counts is not p.histogram.counts
    assert merged.arcs is not p.arcs
    assert merged.warnings is not p.warnings
    if merged.histogram.counts:
        merged.histogram.counts[0] += 99
    merged.arcs.append(RawArc(0, 0, 1))
    merged.warnings.append("scribble")
    assert dumps_gmon(p) == before


@settings(deadline=None, max_examples=30)
@given(profiles=fleets())
def test_accumulator_path_feed_matches_merge_after_roundtrip(
    tmp_path_factory, profiles
):
    """merge(sequential) == the streaming accumulator, via real files."""
    tmp_path = tmp_path_factory.mktemp("fleet")
    paths = []
    for i, p in enumerate(profiles):
        path = tmp_path / f"gmon_{i}.out"
        write_gmon(p, path)
        paths.append(path)
    sequential = merge_profiles([read_gmon(p) for p in paths])
    acc = ProfileAccumulator()
    for p in paths:
        acc.add(p)
    out = tmp_path / "gmon.sum"
    write_gmon(acc.result(), out)
    assert out.read_bytes() == dumps_gmon(sequential)
    # and the round-trip itself is lossless
    assert dumps_gmon(parse_gmon(out.read_bytes())) == dumps_gmon(sequential)


# -- failure modes ----------------------------------------------------------------


def _tweaked(layout, field):
    low, nbuckets, width, profrate = layout
    if field == "low_pc":
        return (low + 1, nbuckets, width, profrate)
    if field == "nbuckets":
        return (low, nbuckets + 1, width, profrate)
    if field == "width":
        return (low, nbuckets, width + 1, profrate)
    return (low, nbuckets, width, profrate + 7)


@settings(deadline=None, max_examples=40)
@given(layouts, st.sampled_from(["low_pc", "nbuckets", "width", "profrate"]))
def test_mismatched_layouts_raise_merge_error(layout, field):
    """Every layout mismatch is a MergeError — never KeyError/IndexError."""
    a = profile_for(layout, [1] * layout[1], [], 1, "a")
    b = profile_for(_tweaked(layout, field), [2] * _tweaked(layout, field)[1],
                    [], 1, "b")
    for seq in ([a, b], [b, a]):
        try:
            merge_profiles(seq)
        except MergeError as exc:
            assert isinstance(exc, ReproError)
        else:  # pragma: no cover - the algebra would be broken
            pytest.fail("mismatched layouts merged silently")
    acc = ProfileAccumulator()
    acc.add_profile(a, source="a.gmon")
    with pytest.raises(MergeError) as excinfo:
        acc.add_profile(b, source="b.gmon")
    assert excinfo.value.path == "b.gmon"
    assert excinfo.value.expected is not None
    assert excinfo.value.actual is not None
    assert excinfo.value.expected != excinfo.value.actual


def test_zero_profiles_raise_merge_error():
    with pytest.raises(MergeError, match="zero profiles"):
        merge_profiles([])
    with pytest.raises(MergeError, match="zero profiles"):
        ProfileAccumulator().result()


@settings(deadline=None, max_examples=30)
@given(fleets(min_size=2))
def test_salvaged_warnings_survive_the_merge(profiles):
    """A degraded input never becomes pristine by being merged."""
    profiles[0].warnings.extend(
        ["a.gmon: salvage: arc table truncated: 3/9 arcs recovered"]
    )
    profiles[-1].warnings.extend(["b.gmon: salvage: 1 trailing byte(s)"])
    merged = merge_profiles(profiles)
    assert "a.gmon: salvage: arc table truncated: 3/9 arcs recovered" in merged.warnings
    assert "b.gmon: salvage: 1 trailing byte(s)" in merged.warnings
    acc = ProfileAccumulator()
    for p in profiles:
        acc.add_profile(p)
    assert acc.result().warnings == merged.warnings
    assert merged.degraded


@settings(deadline=None, max_examples=40)
@given(fleets(min_size=2, max_size=4), st.data())
def test_runs_counters_sum_across_checkpointed_inputs(profiles, data):
    """runs adds up exactly, through any grouping of partial merges."""
    expected = sum(p.runs for p in profiles)
    assert merge_profiles(profiles).runs == expected
    k = data.draw(st.integers(min_value=1, max_value=len(profiles) - 1))
    regrouped = merge_profiles(
        [merge_profiles(profiles[:k]), merge_profiles(profiles[k:])]
    )
    assert regrouped.runs == expected

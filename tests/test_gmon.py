"""Tests for the on-disk profile data format."""

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arcs import RawArc
from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData, merge_profiles
from repro.errors import GmonFormatError, MergeError
from repro.gmon import dumps_gmon, read_gmon, write_gmon
from repro.gmon.format import MAGIC, MAX_COUNT


def _sample_data(comment="test run"):
    hist = Histogram(0, 40, [0, 5, 0, 2, 0, 0, 0, 1, 0, 0], profrate=60)
    arcs = [RawArc(4, 20, 17), RawArc(0, 8, 1), RawArc(24, 20, 0)]
    return ProfileData(hist, arcs, comment=comment)


class TestRoundTrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "gmon.out"
        data = _sample_data()
        write_gmon(data, path)
        back = read_gmon(path)
        assert back.histogram.counts == data.histogram.counts
        assert back.histogram.low_pc == 0
        assert back.histogram.high_pc == 40
        assert back.histogram.profrate == 60
        assert back.comment == "test run"
        assert back.runs == 1
        assert sorted(back.arcs, key=lambda a: (a.from_pc, a.self_pc)) == sorted(
            data.arcs, key=lambda a: (a.from_pc, a.self_pc)
        )

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "gmon.out"
        write_gmon(ProfileData(Histogram(0, 0, [])), path)
        back = read_gmon(path)
        assert back.arcs == []
        assert back.histogram.num_buckets == 0

    def test_duplicate_arcs_condensed_on_write(self, tmp_path):
        hist = Histogram(0, 8, [0, 0])
        data = ProfileData(hist, [RawArc(0, 4, 2), RawArc(0, 4, 3)])
        path = tmp_path / "gmon.out"
        write_gmon(data, path)
        back = read_gmon(path)
        assert back.arcs == [RawArc(0, 4, 5)]

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_gmon(_sample_data(), p1)
        write_gmon(_sample_data(), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRawGmon:
    """The wire-form view: lazy decoding, settled public types."""

    def test_counts_is_always_a_tuple(self):
        """Pinned wire type: ``RawGmon.counts`` is ``tuple[int, ...]``.

        Consumers hash, cache, and compare it; a list here would be a
        silent API break, so the type is part of the format contract.
        """
        from repro.gmon import dumps_gmon, parse_gmon_raw
        from repro.gmon.format import RawGmon

        raw = parse_gmon_raw(dumps_gmon(_sample_data()))
        assert type(raw.counts) is tuple
        assert raw.counts == (0, 5, 0, 2, 0, 0, 0, 1, 0, 0)
        # repeated access returns the same decoded object
        assert raw.counts is raw.counts
        # construction from an explicit sequence normalizes too
        direct = RawGmon("", 1, 0, 40, 3, 60, [1, 2, 3])
        assert type(direct.counts) is tuple

    def test_counts_blob_round_trips_and_equals_eager(self):
        from repro.gmon import dumps_gmon, parse_gmon_raw
        from repro.gmon.format import RawGmon

        blob = dumps_gmon(_sample_data())
        raw = parse_gmon_raw(blob)
        eager = RawGmon(
            raw.comment, raw.runs, raw.low_pc, raw.high_pc, raw.nbuckets,
            raw.profrate, raw.counts, raw.arc_blob, raw.narcs,
        )
        assert raw == eager
        assert hash(raw) == hash(eager)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"not a profile")
        with pytest.raises(GmonFormatError, match="magic"):
            read_gmon(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "gmon.out"
        write_gmon(_sample_data(), path)
        blob = path.read_bytes()
        for cut in (len(MAGIC), len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(GmonFormatError):
                read_gmon(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "gmon.out"
        write_gmon(_sample_data(), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(GmonFormatError, match="trailing"):
            read_gmon(path)

    def test_count_overflow_rejected(self, tmp_path):
        hist = Histogram(0, 4, [0])
        data = ProfileData(hist, [RawArc(0, 0, 2**32)])
        with pytest.raises(GmonFormatError, match="32 bits"):
            write_gmon(data, tmp_path / "gmon.out")

    def test_histogram_count_overflow_rejected(self, tmp_path):
        data = ProfileData(Histogram(0, 4, [2**32]), [])
        with pytest.raises(GmonFormatError, match="32 bits"):
            write_gmon(data, tmp_path / "gmon.out")

    def test_comment_too_long_rejected(self, tmp_path):
        data = ProfileData(Histogram(0, 4, [0]), [], comment="x" * 70_000)
        with pytest.raises(GmonFormatError, match="comment"):
            write_gmon(data, tmp_path / "gmon.out")


class TestWriterFieldBounds:
    """A value its on-disk field cannot hold is a GmonFormatError naming
    the field, never a ``struct.error`` and never a file."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("low_pc", -8), ("low_pc", 2**64),
            ("high_pc", -8), ("high_pc", 2**64),
            ("arc from_pc", -4), ("arc from_pc", 2**64),
            ("arc self_pc", -4), ("arc self_pc", 2**64),
            ("runs", 2**32), ("profrate", 2**32),
        ],
    )
    def test_out_of_range_field_rejected(self, tmp_path, field, value):
        data = ProfileData(Histogram(0, 8, [1, 0]), [RawArc(0, 4, 1)])
        if field == "runs":
            data.runs = value
        elif field.startswith("arc "):
            data.arcs = [replace(data.arcs[0], **{field[4:]: value})]
        else:
            setattr(data.histogram, field, value)
        with pytest.raises(GmonFormatError, match=f"^{field} {value} "):
            dumps_gmon(data)
        with pytest.raises(GmonFormatError, match=f"^{field} {value} "):
            write_gmon(data, tmp_path / "gmon.out")
        assert not list(tmp_path.iterdir())

    def test_bucket_set_negative_after_construction(self):
        data = ProfileData(Histogram(0, 8, [3, 4]), [])
        data.histogram.counts[1] = -1
        with pytest.raises(GmonFormatError, match="histogram count -1 is negative"):
            dumps_gmon(data)

    @pytest.mark.parametrize("seed", range(6))
    def test_bytes_equal_per_field_reference(self, seed):
        rng = random.Random(seed)
        nbuckets = (0, 1, 2, 17, 300, 4096)[seed]
        counts = [rng.choice((0, 0, 1, rng.randrange(MAX_COUNT), MAX_COUNT))
                  for _ in range(nbuckets)]
        if counts:
            counts[rng.randrange(nbuckets)] = MAX_COUNT
        arcs = [RawArc(rng.randrange(2**64), rng.randrange(2**64),
                       rng.randrange(MAX_COUNT + 1)) for _ in range(seed * 3)]
        hist = Histogram(0, nbuckets * 4, counts, profrate=rng.randrange(1, 2**32))
        data = ProfileData(hist, arcs, runs=rng.randrange(2**32),
                           comment=f"seed {seed}")
        assert dumps_gmon(data) == _reference_dumps(data)


def _reference_dumps(data):
    """The gmon layout written one ``struct.pack`` per field."""
    hist = data.histogram
    comment = data.comment.encode("utf-8")
    out = [MAGIC, struct.pack("<H", len(comment)), comment,
           struct.pack("<I", data.runs), struct.pack("<Q", hist.low_pc),
           struct.pack("<Q", hist.high_pc),
           struct.pack("<I", len(hist.counts)),
           struct.pack("<I", hist.profrate)]
    out += [struct.pack("<I", count) for count in hist.counts]
    arcs = data.condensed_arcs()
    out.append(struct.pack("<I", len(arcs)))
    for arc in arcs:
        out += [struct.pack("<Q", arc.from_pc), struct.pack("<Q", arc.self_pc),
                struct.pack("<I", arc.count)]
    return b"".join(out)


class TestMerge:
    def test_merge_sums_everything(self):
        a, b = _sample_data("a"), _sample_data("b")
        merged = merge_profiles([a, b])
        assert merged.total_ticks == a.total_ticks * 2
        assert merged.runs == 2
        assert merged.comment == "a; b"
        arc = next(x for x in merged.arcs if x.from_pc == 4)
        assert arc.count == 34

    def test_merge_static_arcs_stay_zero(self):
        merged = merge_profiles([_sample_data(), _sample_data()])
        static = next(x for x in merged.arcs if x.from_pc == 24)
        assert static.count == 0

    def test_merge_incompatible_raises(self):
        a = _sample_data()
        b = ProfileData(Histogram(0, 80, [0] * 10), [])
        with pytest.raises(MergeError):
            merge_profiles([a, b])

    def test_merge_roundtrips(self, tmp_path):
        merged = merge_profiles([_sample_data(), _sample_data()])
        path = tmp_path / "gmon.sum"
        write_gmon(merged, path)
        back = read_gmon(path)
        assert back.runs == 2
        assert back.total_ticks == merged.total_ticks

    def test_merge_empty_list(self):
        with pytest.raises(MergeError):
            merge_profiles([])


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 1000), min_size=0, max_size=30),
    st.lists(
        st.tuples(
            st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 10**6)
        ),
        max_size=20,
    ),
    st.text(max_size=40),
)
def test_roundtrip_property(tmp_path_factory, counts, arc_tuples, comment):
    """Property: write → read is the identity on condensed data."""
    tmp = tmp_path_factory.mktemp("gmon")
    hist = Histogram(0, max(len(counts), 1) * 4, counts or [0])
    data = ProfileData(
        hist,
        [RawArc(f, s, c) for f, s, c in arc_tuples],
        comment=comment,
    )
    path = tmp / "gmon.out"
    write_gmon(data, path)
    back = read_gmon(path)
    assert back.histogram.counts == data.histogram.counts
    assert back.comment == comment
    assert back.condensed_arcs() == data.condensed_arcs()

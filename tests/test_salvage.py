"""The salvaging gmon reader: maximal-prefix recovery, honestly reported.

Layout offsets of the victim file used throughout (see
``repro/gmon/format.py``): magic 6, comment-length 2, comment C,
header 28 (runs 4, low_pc 8, high_pc 8, num_buckets 4, profrate 4),
buckets 4 each, num_arcs 4, arcs 20 each.
"""

import struct

import pytest

from repro.check import degradation_passes, salvage_passes
from repro.check.diagnostics import CODES, Severity
from repro.core import analyze
from repro.core.arcs import RawArc
from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.core.symbols import Symbol, SymbolTable
from repro.errors import GmonFormatError
from repro.gmon import dumps_gmon, read_gmon, salvage_gmon, salvage_gmon_bytes
from repro.gmon.format import RUNS_ZERO_WARNING
from repro.report import format_flat_profile, format_graph_profile

COMMENT = "victim"
MAGIC_END = 6
COMMENT_END = MAGIC_END + 2 + len(COMMENT)
HEADER_END = COMMENT_END + 28
BUCKETS_END = HEADER_END + 10 * 4
NARCS_END = BUCKETS_END + 4
ARCS_END = NARCS_END + 2 * 20


def _victim() -> ProfileData:
    return ProfileData(
        Histogram(0, 40, [1, 2, 3, 4, 5, 0, 0, 0, 0, 9], profrate=60),
        [RawArc(4, 20, 7), RawArc(12, 8, 1)],
        comment=COMMENT,
    )


@pytest.fixture
def blob() -> bytes:
    return dumps_gmon(_victim())


class TestCleanSalvage:
    def test_intact_file_matches_strict(self, blob):
        from repro.gmon import parse_gmon

        strict = parse_gmon(blob)
        data, report = salvage_gmon_bytes(blob)
        assert report.clean
        assert not report.unsalvageable
        assert report.consumed_bytes == report.total_bytes == len(blob)
        assert data.histogram.counts == strict.histogram.counts
        assert data.condensed_arcs() == strict.condensed_arcs()
        assert data.comment == strict.comment
        assert data.warnings == []

    def test_clean_report_yields_no_diagnostics(self, blob):
        _, report = salvage_gmon_bytes(blob)
        assert salvage_passes(report) == []

    def test_salvage_via_read_gmon_and_path(self, blob, tmp_path):
        path = tmp_path / "gmon.out"
        path.write_bytes(blob)
        data, report = read_gmon(path, mode="salvage")
        assert report.clean
        assert report.source == str(path)
        data2, report2 = salvage_gmon(path)
        assert data2.condensed_arcs() == data.condensed_arcs()

    def test_unknown_mode_rejected(self, blob, tmp_path):
        path = tmp_path / "gmon.out"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="mode"):
            read_gmon(path, mode="lenient")


class TestSectionRecovery:
    def test_bad_magic_unsalvageable(self):
        data, report = salvage_gmon_bytes(b"not a profile at all")
        assert report.unsalvageable
        assert not report.clean
        assert data.total_ticks == 0 and data.arcs == []
        diags = salvage_passes(report)
        assert [d.code for d in diags] == ["GP401"]
        assert diags[0].severity is Severity.ERROR

    def test_empty_input_unsalvageable(self):
        data, report = salvage_gmon_bytes(b"")
        assert report.unsalvageable
        assert salvage_passes(report)[0].code == "GP401"

    def test_cut_inside_comment_recovers_comment_prefix(self, blob):
        data, report = salvage_gmon_bytes(blob[: MAGIC_END + 2 + 3])
        assert not report.clean and not report.unsalvageable
        assert data.comment == COMMENT[:3]
        assert data.total_ticks == 0
        assert any("comment truncated" in m for m in report.dropped)

    def test_cut_inside_header_drops_body(self, blob):
        data, report = salvage_gmon_bytes(blob[: COMMENT_END + 10])
        assert data.comment == COMMENT
        assert data.total_ticks == 0 and data.arcs == []
        assert any("header truncated" in m for m in report.dropped)
        assert "comment" in report.recovered_sections
        assert "header" not in report.recovered_sections

    def test_cut_inside_buckets_recovers_prefix(self, blob):
        # keep 4 of the 10 bucket counters (plus 2 stray bytes)
        data, report = salvage_gmon_bytes(blob[: HEADER_END + 4 * 4 + 2])
        assert report.buckets_expected == 10
        assert report.buckets_read == 4
        assert data.histogram.counts == [1, 2, 3, 4]
        # geometry shrinks with the recovered prefix: 4 buckets * 4 addrs
        assert data.histogram.low_pc == 0
        assert data.histogram.high_pc == 16
        assert data.arcs == []
        assert any("histogram truncated: 4/10" in m for m in report.dropped)

    def test_cut_at_narcs_field_loses_arcs_only(self, blob):
        data, report = salvage_gmon_bytes(blob[:BUCKETS_END])
        assert data.histogram.counts == _victim().histogram.counts
        assert data.arcs == []
        assert any("no arc count field" in m for m in report.dropped)

    def test_cut_inside_arcs_recovers_complete_records(self, blob):
        data, report = salvage_gmon_bytes(blob[: NARCS_END + 20 + 7])
        assert report.arcs_expected == 2
        assert report.arcs_read == 1
        assert data.arcs == [RawArc(4, 20, 7)]
        assert data.histogram.counts == _victim().histogram.counts
        assert any("arc table truncated: 1/2" in m for m in report.dropped)

    def test_trailing_garbage_noted_not_fatal(self, blob):
        data, report = salvage_gmon_bytes(blob + b"\xde\xad")
        assert not report.clean
        assert data.condensed_arcs() == _victim().condensed_arcs()
        assert any("trailing" in m for m in report.notes)


class TestDropCodes:
    """A drop's GP code comes from the section that lost data."""

    @pytest.mark.parametrize(
        "cut, sections, codes",
        [
            (MAGIC_END + 1, ["comment"], ["GP404"]),
            (MAGIC_END + 2 + 3, ["comment"], ["GP404"]),
            (COMMENT_END + 10, ["header"], ["GP404"]),
            # the arc count goes with the buckets
            (HEADER_END + 4 * 4 + 2, ["buckets", "arcs"], ["GP402", "GP403"]),
            (BUCKETS_END + 2, ["arcs"], ["GP403"]),
            (NARCS_END + 20 + 7, ["arcs"], ["GP403"]),
        ],
        ids=["comment-length", "comment", "header", "buckets", "arc-count",
             "arcs"],
    )
    def test_cut_inside_each_section(self, blob, cut, sections, codes):
        _, report = salvage_gmon_bytes(blob[:cut])
        assert report.dropped_sections == sections
        diags = salvage_passes(report)
        assert [d.code for d in diags] == codes
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_zero_buckets_over_a_range_drop_buckets(self, blob):
        hostile = bytearray(blob[:HEADER_END] + blob[BUCKETS_END:])
        struct.pack_into("<I", hostile, COMMENT_END + 20, 0)
        data, report = salvage_gmon_bytes(bytes(hostile))
        assert data.histogram.counts == []
        assert data.arcs == _victim().condensed_arcs()
        assert [d.code for d in salvage_passes(report)] == ["GP402"]


class TestHostileHeaders:
    def test_huge_nbuckets_strict_fails_fast(self, blob, tmp_path):
        hostile = bytearray(blob)
        struct.pack_into("<I", hostile, COMMENT_END + 20, 0xFFFFFFFF)
        path = tmp_path / "gmon.out"
        path.write_bytes(bytes(hostile))
        with pytest.raises(GmonFormatError, match="claims 4294967295"):
            read_gmon(path)

    def test_huge_nbuckets_salvage_reads_what_is_there(self, blob):
        hostile = bytearray(blob)
        struct.pack_into("<I", hostile, COMMENT_END + 20, 0xFFFFFFFF)
        data, report = salvage_gmon_bytes(bytes(hostile))
        # everything after the header parses as bucket counters; no
        # gigantic allocation, no crash
        assert report.buckets_expected == 0xFFFFFFFF
        assert report.buckets_read == (len(blob) - HEADER_END) // 4
        assert any("histogram truncated" in m for m in report.dropped)

    def test_huge_narcs_strict_fails_fast(self, blob, tmp_path):
        hostile = bytearray(blob)
        struct.pack_into("<I", hostile, BUCKETS_END, 0xFFFFFF)
        path = tmp_path / "gmon.out"
        path.write_bytes(bytes(hostile))
        with pytest.raises(GmonFormatError, match="claims 16777215 arcs"):
            read_gmon(path)

    def test_huge_narcs_salvage_keeps_real_arcs(self, blob):
        hostile = bytearray(blob)
        struct.pack_into("<I", hostile, BUCKETS_END, 0xFFFFFF)
        data, report = salvage_gmon_bytes(bytes(hostile))
        assert data.arcs == _victim().condensed_arcs()
        assert report.arcs_read == 2
        assert any("arc table truncated: 2/16777215" in m
                   for m in report.dropped)

    def test_inverted_bounds_drop_histogram_keep_arcs(self, blob):
        hostile = bytearray(blob)
        # low_pc := 1000 (> high_pc 40)
        struct.pack_into("<Q", hostile, COMMENT_END + 4, 1000)
        with pytest.raises(GmonFormatError, match="below"):
            from repro.gmon import parse_gmon

            parse_gmon(bytes(hostile))
        data, report = salvage_gmon_bytes(bytes(hostile))
        assert data.histogram.counts == []
        assert data.arcs == _victim().condensed_arcs()
        assert any("impossible histogram bounds" in m for m in report.dropped)
        assert [d.code for d in salvage_passes(report)] == ["GP402"]

    def test_zero_profrate_repaired_with_note(self, blob):
        hostile = bytearray(blob)
        struct.pack_into("<I", hostile, COMMENT_END + 24, 0)
        with pytest.raises(GmonFormatError, match="histogram"):
            from repro.gmon import parse_gmon

            parse_gmon(bytes(hostile))
        data, report = salvage_gmon_bytes(bytes(hostile))
        assert data.histogram.profrate == 60  # DEFAULT_PROFRATE
        assert data.histogram.counts == _victim().histogram.counts
        assert any("profrate" in m for m in report.notes)


class TestMalformedComment:
    def test_strict_wraps_unicode_error(self, blob, tmp_path):
        bad = bytearray(blob)
        bad[MAGIC_END + 2] = 0xFF  # first comment byte: invalid UTF-8 start
        path = tmp_path / "gmon.out"
        path.write_bytes(bytes(bad))
        with pytest.raises(GmonFormatError, match="UTF-8"):
            read_gmon(path)

    def test_salvage_replaces_bad_comment_bytes(self, blob):
        bad = bytearray(blob)
        bad[MAGIC_END + 2] = 0xFF
        data, report = salvage_gmon_bytes(bytes(bad))
        assert data.comment == "�" + COMMENT[1:]
        assert data.condensed_arcs() == _victim().condensed_arcs()
        assert any("U+FFFD" in m for m in report.notes)
        codes = [d.code for d in salvage_passes(report)]
        assert codes == ["GP405"]


class TestRunsZero:
    def _zero_runs(self, blob: bytes) -> bytes:
        mutated = bytearray(blob)
        struct.pack_into("<I", mutated, COMMENT_END, 0)
        return bytes(mutated)

    def test_strict_surfaces_warning_instead_of_rewriting_history(
        self, blob, tmp_path
    ):
        path = tmp_path / "gmon.out"
        path.write_bytes(self._zero_runs(blob))
        data = read_gmon(path)
        assert data.runs == 1  # still clamped (division safety)...
        assert data.warnings == [RUNS_ZERO_WARNING]  # ...but never silently
        assert data.degraded

    def test_degradation_passes_emit_gp406(self, blob, tmp_path):
        path = tmp_path / "gmon.out"
        path.write_bytes(self._zero_runs(blob))
        diags = degradation_passes(read_gmon(path))
        assert [d.code for d in diags] == ["GP406"]
        assert diags[0].severity is Severity.WARNING

    def test_salvage_notes_runs_zero(self, blob):
        data, report = salvage_gmon_bytes(self._zero_runs(blob))
        assert data.runs == 1
        assert any("runs == 0" in m for m in report.notes)
        assert "GP406" in [d.code for d in salvage_passes(report)]


class TestDegradedAnalysis:
    def _symbols(self) -> SymbolTable:
        return SymbolTable(
            [Symbol(0, "main", 8), Symbol(8, "a", 20), Symbol(20, "b", 40)]
        )

    def test_salvaged_data_flows_into_profile_warnings(self, blob):
        data, report = salvage_gmon_bytes(blob[: NARCS_END + 20 + 7])
        assert not report.clean
        profile = analyze(data, self._symbols())
        assert profile.degraded
        assert any("arc table truncated" in w for w in profile.warnings)

    def test_reports_carry_degradation_banner(self, blob):
        data, _ = salvage_gmon_bytes(blob[: NARCS_END + 20 + 7])
        profile = analyze(data, self._symbols())
        flat = format_flat_profile(profile)
        graph = format_graph_profile(profile)
        for listing in (flat, graph):
            assert "degraded input" in listing
            assert "arc table truncated" in listing

    def test_pristine_reports_have_no_banner(self, blob):
        from repro.gmon import parse_gmon

        profile = analyze(parse_gmon(blob), self._symbols())
        assert not profile.degraded
        assert "degraded" not in format_flat_profile(profile)
        assert "degraded" not in format_graph_profile(profile)

    def test_unknown_callee_arcs_skipped_with_warning(self):
        data = ProfileData(
            Histogram(0, 40, [0] * 10),
            [RawArc(4, 20, 3), RawArc(4, 9999, 5)],
        )
        profile = analyze(data, self._symbols())
        assert any("no symbol" in w for w in profile.warnings)
        # the impossible arc is gone, the good one survived
        assert profile.graph.arc("main", "b") is not None


class TestSalvageReportRendering:
    def test_to_dict_and_text(self, blob):
        _, report = salvage_gmon_bytes(blob[: NARCS_END + 20 + 7],
                                       source="x.gmon")
        d = report.to_dict()
        assert d["format"] == "repro-salvage-1"
        assert d["clean"] is False
        assert d["arcs_read"] == 1
        text = report.render_text()
        assert "x.gmon" in text and "dropped:" in text
        assert "recovered" in report.summary()

    def test_gp4xx_codes_registered(self):
        for code in ("GP401", "GP402", "GP403", "GP404", "GP405", "GP406"):
            assert code in CODES

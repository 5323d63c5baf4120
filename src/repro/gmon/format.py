"""Binary profile data files, in the spirit of BSD's ``gmon.out``.

§3.2: "When the profiled program terminates, the arc table and the
histogram of program counter samples are written to a file.  The arc
table is condensed to consist of the source and destination addresses of
the arc and the count of the number of times the arc was traversed...
The recorded histogram consists of counters... The ranges themselves are
summarized as a lower and upper bound and a step size."

Layout (all integers little-endian, unsigned):

======================  =======  =========================================
field                   size     meaning
======================  =======  =========================================
magic                   6        ``b"gmon\\x01\\x00"`` (name + version 1)
header_len              2        bytes of comment that follow
comment                 var      UTF-8 provenance string
runs                    4        number of executions summed into the file
low_pc                  8        histogram lower bound (inclusive)
high_pc                 8        histogram upper bound (exclusive)
num_buckets             4        histogram size
profrate                4        clock ticks per second
bucket counts           4 each   one per bucket
num_arcs                4        arc record count
arc records             20 each  from_pc (8), self_pc (8), count (4)
======================  =======  =========================================

Like the original, the file holds raw addresses only — symbol names come
from the executable image at analysis time, which is what lets several
runs (and even kernel snapshots) share one format.

Robustness (the :mod:`repro.resilience` integration):

* **Writes are atomic by default** — the bytes go to a temp file that is
  renamed over the destination, so a crash mid-write leaves the previous
  version intact instead of a torn file.
* **One decoder** — the strict parse, the salvage and the header peek
  are one walk over the sections in file order (magic, comment length,
  comment, header, buckets, arc count, arcs, trailing bytes).  Each
  fault is a *drop* (data lost, tagged with the section that lost it)
  or a *note* (repaired, nothing lost), with one message in both modes.
* **Strict reads fail fast and fail typed** — the walk raises its first
  fault as :class:`GmonFormatError` (never ``UnicodeDecodeError`` or a
  giant allocation): declared ``num_buckets``/``num_arcs`` are validated
  against the actual remaining file size *before* anything is copied.
  A header peek is the same walk stopped after the header.
* **Salvage reads never fail** — ``read_gmon(path, mode="salvage")``
  files every fault instead, keeps the maximal structurally-valid
  prefix of a truncated or corrupted file and returns the recovered
  :class:`ProfileData` together with a
  :class:`~repro.resilience.SalvageReport` saying exactly what was
  dropped.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, NamedTuple

from repro.core.arcs import RawArc
from repro.core.histogram import DEFAULT_PROFRATE, Histogram
from repro.core.profiledata import ProfileData
from repro.errors import GmonFormatError
from repro.resilience.atomic import atomic_write_bytes
from repro.resilience.faults import FaultInjector
from repro.resilience.salvage import SalvageReport

MAGIC = b"gmon\x01\x00"
_COMMENT_LEN = struct.Struct("<H")
_HEADER = struct.Struct("<I QQ I I")  # runs, low, high, nbuckets, profrate
_BUCKET = struct.Struct("<I")
_NARCS = struct.Struct("<I")
_ARC = struct.Struct("<QQI")

#: Bucket counters are 32-bit on disk, matching the retrospective's
#: "full 32-bit count for each possible program counter value".
MAX_COUNT = 0xFFFFFFFF

#: Warning attached when a file declares ``runs == 0`` (see
#: :func:`read_gmon`): the value is clamped to 1, but never silently.
RUNS_ZERO_WARNING = "file declares runs == 0; treating it as a single run"


# -- writing --------------------------------------------------------------------


def write_gmon(
    data: ProfileData,
    path,
    atomic: bool = True,
    injector: FaultInjector | None = None,
) -> None:
    """Condense ``data`` to a binary file at ``path``.

    Arc records are merged per (from_pc, self_pc) pair and sorted, so the
    output is deterministic for identical data.  A value its unsigned
    on-disk field cannot hold — negative, or past 32 bits for a count,
    ``runs`` or ``profrate``, past 64 for an address — raises
    :class:`GmonFormatError` naming the field, and nothing is written.

    Arguments:
        atomic: write to a temp file and rename (the default) so a crash
            never leaves a torn file at ``path``; pass False to write in
            place (what the pre-resilience implementation did — kept for
            the fault-injection tests that *want* torn files).
        injector: optional fault-injection harness wrapped around the
            byte-level write (see :mod:`repro.resilience.faults`).
    """
    payload = dumps_gmon(data)
    if atomic:
        atomic_write_bytes(path, payload, injector)
        return
    with open(path, "wb") as f:
        if injector is not None:
            injector.write(f, payload)
        else:
            f.write(payload)


def dumps_gmon(data: ProfileData) -> bytes:
    """Serialize ``data`` to the on-disk byte layout."""
    buf = io.BytesIO()
    _write_stream(data, buf)
    return buf.getvalue()


def _write_stream(data: ProfileData, f: BinaryIO) -> None:
    hist = data.histogram
    counts = hist.counts
    comment = data.comment.encode("utf-8")
    if len(comment) > 0xFFFF:
        raise GmonFormatError("comment longer than 65535 bytes")
    f.write(MAGIC)
    f.write(_COMMENT_LEN.pack(len(comment)))
    f.write(comment)
    # ``struct`` range-checks every field in C; only a failed pack pays
    # for finding the field to name.
    try:
        f.write(
            _HEADER.pack(
                data.runs, hist.low_pc, hist.high_pc, len(counts), hist.profrate
            )
        )
    except struct.error:
        _unsigned("runs", data.runs, 32)
        _unsigned("low_pc", hist.low_pc, 64)
        _unsigned("high_pc", hist.high_pc, 64)
        _unsigned("profrate", hist.profrate, 32)
        raise
    try:
        f.write(struct.pack(f"<{len(counts)}I", *counts))
    except struct.error:
        for count in counts:
            _unsigned("histogram count", count, 32)
        raise
    arcs = data.condensed_arcs()
    f.write(_NARCS.pack(len(arcs)))
    for arc in arcs:
        try:
            f.write(_ARC.pack(arc.from_pc, arc.self_pc, arc.count))
        except struct.error:
            _unsigned("arc from_pc", arc.from_pc, 64)
            _unsigned("arc self_pc", arc.self_pc, 64)
            _unsigned("arc count", arc.count, 32)
            raise


def _unsigned(what: str, value: int, bits: int) -> None:
    """Reject a value its unsigned on-disk field cannot hold, naming it."""
    if value < 0:
        raise GmonFormatError(f"{what} {value} is negative")
    if value >= 1 << bits:
        raise GmonFormatError(f"{what} {value} exceeds {bits} bits")


# -- reading --------------------------------------------------------------------


class RawGmon:
    """A decoded gmon file, still in wire representation.

    The cheap sibling of :class:`~repro.core.profiledata.ProfileData`:
    bucket counts stay packed bytes (``counts_blob``) and arc records
    stay packed bytes (``arc_blob``; decode with ``iter_arcs``), so
    fleet-scale consumers that only sum fields —
    :class:`repro.fleet.ProfileAccumulator` — never pay for per-record
    or per-bucket object construction.

    ``counts`` is **always a ``tuple[int, ...]``** — the settled wire
    type, which ``test_gmon`` pins.  When the instance was built from
    the wire, the tuple is decoded lazily on first access; the
    blob-only fast paths never touch it.
    """

    __slots__ = (
        "comment", "runs", "low_pc", "high_pc", "nbuckets", "profrate",
        "arc_blob", "narcs", "counts_blob", "_counts",
    )

    def __init__(
        self, comment: str, runs: int, low_pc: int, high_pc: int,
        nbuckets: int, profrate: int, counts=None, arc_blob: bytes = b"",
        narcs: int = 0, *, counts_blob: bytes | None = None,
    ):
        self.comment = comment
        self.runs = runs
        self.low_pc = low_pc
        self.high_pc = high_pc
        self.nbuckets = nbuckets
        self.profrate = profrate
        self.arc_blob = arc_blob
        self.narcs = narcs
        self.counts_blob = counts_blob
        if counts is not None:
            self._counts: tuple[int, ...] | None = tuple(counts)
        elif counts_blob is None:
            self._counts = ()
        else:
            self._counts = None  # decoded lazily from counts_blob

    @property
    def counts(self) -> tuple[int, ...]:
        """Bucket counters as a tuple (decoded from the blob on demand)."""
        if self._counts is None:
            self._counts = struct.unpack(
                f"<{self.nbuckets}I", self.counts_blob
            )
        return self._counts

    def iter_arcs(self):
        """Yield (from_pc, self_pc, count) triples from the packed blob."""
        return _ARC.iter_unpack(self.arc_blob)

    def _key(self):
        return (
            self.comment, self.runs, self.low_pc, self.high_pc,
            self.nbuckets, self.profrate, self.counts, self.arc_blob,
            self.narcs,
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, RawGmon):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawGmon(comment={self.comment!r}, runs={self.runs}, "
            f"low_pc={self.low_pc:#x}, high_pc={self.high_pc:#x}, "
            f"nbuckets={self.nbuckets}, profrate={self.profrate}, "
            f"narcs={self.narcs})"
        )


class GmonHeader(NamedTuple):
    """Just the fixed-size prefix of a gmon file (no bucket/arc data).

    Cheap to obtain (:func:`peek_gmon_header` reads a few hundred
    bytes), which is what lets a merge driver reject an incompatible
    file among thousands before parsing any of them in full.
    """

    comment: str
    runs: int
    low_pc: int
    high_pc: int
    nbuckets: int
    profrate: int


_MAGIC_LEN = len(MAGIC)

#: Bytes of prefix needed before the comment length is known.
PEEK_PREFIX_LEN = _MAGIC_LEN + _COMMENT_LEN.size

# Where a header peek stops the walk: once the comment length is known,
# or once the header is checked.  A parse or a salvage walks it all.
_STOP_AFTER_LENGTH = 1
_STOP_AFTER_HEADER = 2


def _drop(report: SalvageReport | None, section: str, message: str) -> None:
    """File a fault that loses data from ``section`` on.

    Without a report it is the strict parse's error.
    """
    if report is None:
        raise GmonFormatError(message)
    report.add_drop(section, message)


def _repair(report: SalvageReport | None, message: str, repair: str) -> None:
    """File a fault salvage repairs without losing data.

    Without a report it is the strict parse's error; with one it is a
    note that appends the ``repair``.
    """
    if report is None:
        raise GmonFormatError(message)
    report.add_note(f"{message}; {repair}")


def _nothing_after(
    report: SalvageReport, consumed: int, comment: str = ""
) -> RawGmon:
    """What a salvage walk keeps when no header precedes the damage."""
    report.consumed_bytes = consumed
    return RawGmon(comment, 1, 0, 0, 0, DEFAULT_PROFRATE)


def _walk(blob: bytes, report: SalvageReport | None = None, stop: int = 0):
    """Decode ``blob`` once, section by section, in file order.

    Each fault is filed through :func:`_drop` or :func:`_repair`, with
    one message for both modes.  Without a ``report`` the first fault
    raises :class:`GmonFormatError`, with every declared size checked
    against the bytes that remain before any bucket or arc bytes are
    copied: the strict parse.  With one, every fault is filed, every
    complete record before it is kept and the report's counts are
    filled in: the salvage.

    A whole walk returns a :class:`RawGmon` of what was kept.  A header
    peek stops early: ``_STOP_AFTER_LENGTH`` returns the prefix length the
    header needs, ``_STOP_AFTER_HEADER`` the checked :class:`GmonHeader`.
    """
    size = len(blob)
    if blob[:_MAGIC_LEN] != MAGIC:
        if size < _MAGIC_LEN and MAGIC.startswith(blob):
            message = f"magic truncated ({size}/{_MAGIC_LEN} bytes)"
        else:
            message = (
                f"bad magic {blob[:_MAGIC_LEN]!r}: not a profile data file "
                "or wrong version"
            )
        _drop(report, "magic", message)
        return _nothing_after(report, 0)
    if report is not None:
        report.add_section("magic")
    if size < PEEK_PREFIX_LEN:
        _drop(report, "comment", f"comment length truncated "
              f"({size - _MAGIC_LEN}/{_COMMENT_LEN.size} bytes)")
        return _nothing_after(report, _MAGIC_LEN)
    end = PEEK_PREFIX_LEN + _COMMENT_LEN.unpack_from(blob, _MAGIC_LEN)[0]
    if stop == _STOP_AFTER_LENGTH:
        return end + _HEADER.size
    raw_comment = blob[PEEK_PREFIX_LEN:end]
    if end > size:
        _drop(report, "comment", f"comment truncated "
              f"({size - PEEK_PREFIX_LEN}/{end - PEEK_PREFIX_LEN} bytes)")
        return _nothing_after(
            report, size, raw_comment.decode("utf-8", "replace")
        )
    try:
        comment = raw_comment.decode("utf-8")
    except UnicodeDecodeError as exc:
        _repair(report, f"comment is not valid UTF-8: {exc}",
                "bad bytes replaced with U+FFFD")
        comment = raw_comment.decode("utf-8", "replace")
    if report is not None:
        report.add_section("comment")

    pos = end + _HEADER.size
    if pos > size:
        _drop(report, "header", f"header truncated "
              f"({size - end}/{_HEADER.size} bytes)")
        return _nothing_after(report, end, comment)
    runs, low_pc, high_pc, nbuckets, profrate = _HEADER.unpack_from(blob, end)
    if report is not None:
        report.add_section("header")
        report.buckets_expected = nbuckets
        if runs == 0:
            report.add_note(RUNS_ZERO_WARNING)
    bounds_ok = high_pc >= low_pc
    if not bounds_ok:
        _drop(report, "buckets", f"impossible histogram bounds: high_pc "
              f"{high_pc:#x} below low_pc {low_pc:#x}")
    if not profrate:
        _repair(report, "impossible histogram header: profrate must be "
                "positive, got 0",
                f"substituting the default {DEFAULT_PROFRATE} Hz")
        profrate = DEFAULT_PROFRATE
    if high_pc > low_pc and not nbuckets:
        _drop(report, "buckets", "impossible histogram header: non-empty "
              "address range but zero buckets")
    if stop == _STOP_AFTER_HEADER:
        return GmonHeader(comment, runs, low_pc, high_pc, nbuckets, profrate)

    counts_at = pos
    have = (size - pos) // _BUCKET.size
    if have < nbuckets:
        _drop(report, "buckets", f"histogram truncated: {have}/{nbuckets} "
              f"buckets (header claims {nbuckets}, {size - pos} bytes "
              "remain)")
        nbuckets = have
    elif report is not None:
        report.add_section("buckets")
    pos += nbuckets * _BUCKET.size
    if not bounds_ok:  # only a salvage walk gets here: keep no counts
        low_pc = high_pc = nbuckets = 0

    arcs_at = pos + _NARCS.size
    narcs = 0
    if arcs_at > size:
        _drop(report, "arcs", f"no arc count field "
              f"({size - pos}/{_NARCS.size} bytes)")
        arcs_at = pos
    else:
        narcs = _NARCS.unpack_from(blob, pos)[0]
        have = (size - arcs_at) // _ARC.size
        if report is not None:
            report.arcs_expected = narcs
        if have < narcs:
            _drop(report, "arcs", f"arc table truncated: {have}/{narcs} "
                  f"arcs (arc count claims {narcs} arcs, {size - arcs_at} "
                  "bytes remain)")
            narcs = have
        else:
            if report is not None:
                report.add_section("arcs")
            trailing = size - arcs_at - narcs * _ARC.size
            if trailing:
                _repair(report, f"{trailing} trailing byte(s) after the "
                        "arc records", "ignored")
    pos = arcs_at + narcs * _ARC.size
    if report is not None:
        report.buckets_read = nbuckets
        report.arcs_read = narcs
        report.consumed_bytes = pos
    return RawGmon(
        comment, runs, low_pc, high_pc, nbuckets, profrate, None,
        blob[arcs_at:pos], narcs,
        counts_blob=blob[counts_at:counts_at + nbuckets * _BUCKET.size],
    )


def peek_needed_len(prefix: bytes) -> int:
    """Total prefix bytes a header peek needs, given the first 8 bytes.

    The walk stopped once the comment length is known: raises
    :class:`GmonFormatError` on bad magic or a prefix too short to hold
    the comment length field — the same failures
    :func:`peek_gmon_header_bytes` would report.
    """
    return _walk(prefix, None, _STOP_AFTER_LENGTH)


def peek_gmon_header_bytes(prefix: bytes) -> GmonHeader:
    """Parse a gmon header from an in-memory file prefix.

    The walk stopped after the header.  ``prefix`` must hold at least
    :func:`peek_needed_len` bytes of the file (extra bytes beyond the
    header are ignored).  This is the front-door validation primitive
    for consumers that receive files as byte streams — the ingest
    service peeks an upload's first bytes before buffering the body.
    Raises :class:`GmonFormatError` exactly as a strict parse of those
    bytes would, up to the end of the header.
    """
    return _walk(prefix, None, _STOP_AFTER_HEADER)


def peek_gmon_header(path) -> GmonHeader:
    """Read only the magic/comment/header prefix of a gmon file.

    Raises :class:`GmonFormatError` on bad magic, truncation inside the
    prefix, or an impossible header — the same failures a full strict
    parse would report for those bytes — without touching the bucket
    counters or arc records at all.
    """
    with open(path, "rb") as f:
        head = f.read(PEEK_PREFIX_LEN)
        head += f.read(peek_needed_len(head) - len(head))
    return peek_gmon_header_bytes(head)


def read_gmon(path, mode: str = "strict"):
    """Read a profile data file written by :func:`write_gmon`.

    In ``strict`` mode (the default) returns the :class:`ProfileData`
    and raises :class:`GmonFormatError` on bad magic, truncation, or any
    structurally impossible content — and *only* that error type, with
    declared sizes validated against the file size before any
    allocation.

    In ``salvage`` mode never raises on malformed content: returns a
    ``(ProfileData, SalvageReport)`` tuple holding the maximal
    structurally-valid prefix and the account of everything dropped
    (see :mod:`repro.resilience.salvage`).
    """
    if mode not in ("strict", "salvage"):
        raise ValueError(f"unknown read_gmon mode {mode!r}")
    with open(path, "rb") as f:
        blob = f.read()
    if mode == "salvage":
        return salvage_gmon_bytes(blob, source=str(path))
    return parse_gmon(blob)


def salvage_gmon(path) -> tuple[ProfileData, SalvageReport]:
    """Salvage-read ``path``: :func:`read_gmon` with ``mode="salvage"``."""
    return read_gmon(path, mode="salvage")


def parse_gmon_raw(blob: bytes) -> RawGmon:
    """Strictly parse an in-memory profile data file — wire form only.

    The whole walk without a report: the first fault raises
    :class:`GmonFormatError`.  Returns the :class:`RawGmon` wire view
    instead of building :class:`Histogram`/:class:`RawArc` objects;
    both the object reader and the fleet accumulator sit on top of it.
    """
    return _walk(blob)


def parse_gmon(blob: bytes) -> ProfileData:
    """Strictly parse an in-memory profile data file."""
    raw = _walk(blob)
    warnings = [RUNS_ZERO_WARNING] if raw.runs == 0 else []
    return _profile(raw, raw.nbuckets, warnings)


def salvage_gmon_bytes(
    blob: bytes, source: str = ""
) -> tuple[ProfileData, SalvageReport]:
    """Recover the maximal structurally-valid prefix of ``blob``.

    The whole walk with a report, so it never raises on malformed
    content: an intact magic/comment/header yields whatever complete
    bucket counters and arc records follow, and everything dropped or
    repaired is recorded in the returned :class:`SalvageReport`.  The
    same facts are attached to ``ProfileData.warnings`` so downstream
    analysis stays honest.

    The recovered data of a byte-perfect file is identical to a strict
    parse and its report is ``clean`` — the fuzz suite's "no silent
    lie" invariant.
    """
    report = SalvageReport(source=source, total_bytes=len(blob))
    raw = _walk(blob, report)
    return _profile(raw, report.buckets_expected, report.warnings()), report


def _profile(
    raw: RawGmon, nbuckets: int | None, warnings: list[str]
) -> ProfileData:
    """Build the :class:`ProfileData` of a walk that kept ``raw``."""
    arcs = [
        RawArc(from_pc, self_pc, count)
        for from_pc, self_pc, count in raw.iter_arcs()
    ]
    return ProfileData(
        _partial_histogram(raw, nbuckets), arcs, runs=max(raw.runs, 1),
        comment=raw.comment, warnings=warnings,
    )


def _partial_histogram(raw: RawGmon, nbuckets: int | None) -> Histogram:
    """A consistent histogram over however many buckets survived.

    ``nbuckets`` is the count the header declared.  When only a prefix
    of them was recovered, the upper bound shrinks proportionally so
    each surviving counter keeps the address range it had in the
    complete file.
    """
    counts = list(raw.counts)
    low_pc, high_pc = raw.low_pc, raw.high_pc
    if not counts:
        return Histogram(low_pc, low_pc, [], raw.profrate)
    if len(counts) == nbuckets:
        return Histogram(low_pc, high_pc, counts, raw.profrate)
    width = (high_pc - low_pc) / nbuckets
    shrunk_high = low_pc + max(math.ceil(width * len(counts)), 1)
    return Histogram(low_pc, min(shrunk_high, high_pc), counts, raw.profrate)

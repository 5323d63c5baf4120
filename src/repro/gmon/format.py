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
* **Strict reads fail fast and fail typed** — every malformed input
  raises :class:`GmonFormatError` (never ``UnicodeDecodeError`` or a
  giant allocation): declared ``num_buckets``/``num_arcs`` are validated
  against the actual remaining file size *before* anything is decoded.
* **Salvage reads never fail** — ``read_gmon(path, mode="salvage")``
  recovers the maximal structurally-valid prefix of a truncated or
  corrupted file and returns the recovered :class:`ProfileData` together
  with a :class:`~repro.resilience.SalvageReport` saying exactly what
  was dropped.
"""

from __future__ import annotations

import io
import math
import struct
from array import array
from typing import BinaryIO, NamedTuple

from repro.core.arcs import RawArc
from repro.core.histogram import DEFAULT_PROFRATE, Histogram
from repro.core.profiledata import ProfileData
from repro.errors import GmonFormatError, HistogramError
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
    output is deterministic for identical data.  Counts larger than the
    32-bit on-disk field raise :class:`GmonFormatError` rather than wrap.

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
    comment = data.comment.encode("utf-8")
    if len(comment) > 0xFFFF:
        raise GmonFormatError("comment longer than 65535 bytes")
    f.write(MAGIC)
    f.write(_COMMENT_LEN.pack(len(comment)))
    f.write(comment)
    f.write(
        _HEADER.pack(
            data.runs, hist.low_pc, hist.high_pc, len(hist.counts), hist.profrate
        )
    )
    for count in hist.counts:
        if count > MAX_COUNT:
            raise GmonFormatError(f"histogram count {count} exceeds 32 bits")
        f.write(_BUCKET.pack(count))
    arcs = data.condensed_arcs()
    f.write(_NARCS.pack(len(arcs)))
    for arc in arcs:
        if arc.count > MAX_COUNT:
            raise GmonFormatError(f"arc count {arc.count} exceeds 32 bits")
        f.write(_ARC.pack(arc.from_pc, arc.self_pc, arc.count))


# -- strict reading -------------------------------------------------------------


class RawGmon:
    """A strictly-validated gmon file, still in wire representation.

    The cheap sibling of :class:`~repro.core.profiledata.ProfileData`:
    bucket counts stay packed bytes (``counts_blob``) and arc records
    stay packed bytes (``arc_blob``; decode with ``iter_arcs`` or
    ``arcs_as_arrays``), so fleet-scale consumers that only sum fields
    — :class:`repro.fleet.ProfileAccumulator` — never pay for
    per-record or per-bucket object construction.

    ``counts`` is **always a ``tuple[int, ...]``** — the settled wire
    type.  (Historically the strict reader returned a tuple while the
    salvage path built lists; every construction is normalized now,
    and ``test_gmon`` pins the type.)  When the instance was built
    from the wire, the tuple is decoded lazily on first access; the
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

    def arcs_as_arrays(self):
        """Decode the arc blob into three parallel column arrays.

        Returns ``(from_pcs, self_pcs, counts)`` as stdlib
        ``array('Q')/array('Q')/array('I')`` columns — one bulk
        ``struct.unpack`` for the whole blob, the batch-friendly shape
        a columnar consumer wants.
        """
        n = self.narcs
        if not n:
            return array("Q"), array("Q"), array("I")
        flat = struct.unpack("<" + "QQI" * n, self.arc_blob)
        return (
            array("Q", flat[0::3]), array("Q", flat[1::3]),
            array("I", flat[2::3]),
        )

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


#: Bytes of prefix needed before the comment length is known.
PEEK_PREFIX_LEN = len(MAGIC) + _COMMENT_LEN.size

#: Upper bound on the prefix any header peek can need (worst-case
#: comment).  A consumer holding this many bytes — or the whole file,
#: whichever is shorter — can always run :func:`peek_gmon_header_bytes`.
PEEK_MAX_LEN = PEEK_PREFIX_LEN + 0xFFFF + _HEADER.size


def peek_needed_len(prefix: bytes) -> int:
    """Total prefix bytes a header peek needs, given the first 8 bytes.

    Raises :class:`GmonFormatError` on bad magic or a prefix too short
    to hold the comment length field — the same failures
    :func:`peek_gmon_header_bytes` would report.
    """
    if prefix[: len(MAGIC)] != MAGIC:
        if len(prefix) < len(MAGIC):
            raise GmonFormatError(
                f"truncated file: wanted {len(MAGIC)} bytes of magic, "
                f"got {len(prefix)}"
            )
        raise GmonFormatError(
            f"bad magic {prefix[:len(MAGIC)]!r}: not a profile data file "
            "or wrong version"
        )
    if len(prefix) < PEEK_PREFIX_LEN:
        raise GmonFormatError(
            "truncated file: wanted 2 bytes of comment length, "
            f"got {len(prefix) - len(MAGIC)}"
        )
    comment_len = _COMMENT_LEN.unpack_from(prefix, len(MAGIC))[0]
    return PEEK_PREFIX_LEN + comment_len + _HEADER.size


def peek_gmon_header_bytes(prefix: bytes) -> GmonHeader:
    """Parse a gmon header from an in-memory file prefix.

    ``prefix`` must hold at least :func:`peek_needed_len` bytes of the
    file (extra bytes beyond the header are ignored).  This is the
    front-door validation primitive for consumers that receive files as
    byte streams — the ingest service peeks an upload's first bytes
    before buffering the body.  Raises :class:`GmonFormatError` exactly
    as the path-based :func:`peek_gmon_header` would.
    """
    needed = peek_needed_len(prefix)
    comment_len = needed - PEEK_PREFIX_LEN - _HEADER.size
    body = prefix[PEEK_PREFIX_LEN:]
    if len(body) < comment_len:
        raise GmonFormatError(
            f"truncated file: wanted {comment_len} bytes of comment, "
            f"got {len(body)}"
        )
    comment = _decode_comment(body[:comment_len])
    if len(body) < comment_len + _HEADER.size:
        raise GmonFormatError(
            f"truncated file: wanted {_HEADER.size} bytes of header, "
            f"got {len(body) - comment_len}"
        )
    runs, low_pc, high_pc, nbuckets, profrate = _HEADER.unpack_from(
        body, comment_len
    )
    _validate_header(low_pc, high_pc, nbuckets, profrate)
    return GmonHeader(comment, runs, low_pc, high_pc, nbuckets, profrate)


def peek_gmon_header(path) -> GmonHeader:
    """Read only the magic/comment/header prefix of a gmon file.

    Raises :class:`GmonFormatError` on bad magic, truncation inside the
    prefix, or an impossible header — the same failures a full strict
    parse would report for those bytes — without touching the bucket
    counters or arc records at all.
    """
    with open(path, "rb") as f:
        head = f.read(PEEK_PREFIX_LEN)
        needed = peek_needed_len(head)
        head += f.read(needed - len(head))
    return peek_gmon_header_bytes(head)


def _validate_header(
    low_pc: int, high_pc: int, nbuckets: int, profrate: int
) -> None:
    """Reject structurally impossible header values, strictly.

    Mirrors what :class:`~repro.core.histogram.Histogram` construction
    would reject, but at the wire layer so raw consumers get the same
    guarantees without building the object.
    """
    if high_pc < low_pc:
        raise GmonFormatError(f"high_pc {high_pc:#x} below low_pc {low_pc:#x}")
    if profrate <= 0:
        raise GmonFormatError(
            f"impossible histogram header: profrate must be positive, "
            f"got {profrate}"
        )
    if high_pc > low_pc and nbuckets == 0:
        raise GmonFormatError(
            "impossible histogram header: non-empty address range but "
            "zero buckets"
        )


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

    Performs every structural validation :func:`parse_gmon` performs
    (magic, truncation, declared-size-vs-file-size, impossible header,
    trailing bytes) but returns the :class:`RawGmon` wire view instead
    of building :class:`Histogram`/:class:`RawArc` objects.  This is
    the single source of truth for strict validation; both the object
    reader and the fleet accumulator sit on top of it.
    """
    cursor = _Cursor(blob)
    magic = cursor.take(len(MAGIC), "magic")
    if magic != MAGIC:
        raise GmonFormatError(
            f"bad magic {magic!r}: not a profile data file or wrong version"
        )
    comment_len = _COMMENT_LEN.unpack(cursor.take(2, "comment length"))[0]
    comment = _decode_comment(cursor.take(comment_len, "comment"))
    runs, low_pc, high_pc, nbuckets, profrate = _HEADER.unpack(
        cursor.take(_HEADER.size, "header")
    )
    if high_pc < low_pc:
        raise GmonFormatError(f"high_pc {high_pc:#x} below low_pc {low_pc:#x}")
    # Validate the declared sizes against the actual remaining bytes
    # *before* decoding anything: a corrupt header must fail fast with a
    # clear message, not allocate gigabytes and then hit a truncation.
    need = nbuckets * _BUCKET.size + _NARCS.size
    if cursor.remaining < need:
        raise GmonFormatError(
            f"header claims {nbuckets} histogram buckets ({need} bytes "
            f"incl. arc count) but only {cursor.remaining} bytes remain"
        )
    counts_blob = cursor.take(nbuckets * _BUCKET.size, "histogram buckets")
    narcs = _NARCS.unpack(cursor.take(_NARCS.size, "arc count"))[0]
    if cursor.remaining < narcs * _ARC.size:
        raise GmonFormatError(
            f"header claims {narcs} arcs ({narcs * _ARC.size} bytes) but "
            f"only {cursor.remaining} bytes remain"
        )
    arc_blob = cursor.take(narcs * _ARC.size, "arc records")
    if cursor.remaining:
        raise GmonFormatError("trailing bytes after arc records")
    _validate_header(low_pc, high_pc, nbuckets, profrate)
    return RawGmon(
        comment, runs, low_pc, high_pc, nbuckets, profrate,
        None, arc_blob, narcs, counts_blob=counts_blob,
    )


def parse_gmon(blob: bytes) -> ProfileData:
    """Strictly parse an in-memory profile data file."""
    raw = parse_gmon_raw(blob)
    arcs = [
        RawArc(from_pc, self_pc, count)
        for from_pc, self_pc, count in raw.iter_arcs()
    ]
    try:
        histogram = Histogram(
            raw.low_pc, raw.high_pc, list(raw.counts), raw.profrate
        )
    except HistogramError as exc:
        raise GmonFormatError(f"impossible histogram header: {exc}") from exc
    warnings = [RUNS_ZERO_WARNING] if raw.runs == 0 else []
    return ProfileData(
        histogram, arcs, runs=max(raw.runs, 1), comment=raw.comment,
        warnings=warnings,
    )


class _Cursor:
    """Bounds-checked sequential reader over an in-memory file."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.pos

    def take(self, n: int, what: str) -> bytes:
        """Consume exactly ``n`` bytes or raise on truncation."""
        if self.remaining < n:
            raise GmonFormatError(
                f"truncated file: wanted {n} bytes of {what}, "
                f"got {self.remaining}"
            )
        data = self.blob[self.pos : self.pos + n]
        self.pos += n
        return data


def _decode_comment(raw: bytes) -> str:
    """Decode the comment field, mapping bad bytes to GmonFormatError."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GmonFormatError(f"comment is not valid UTF-8: {exc}") from exc


# -- salvage reading ------------------------------------------------------------


def salvage_gmon_bytes(
    blob: bytes, source: str = ""
) -> tuple[ProfileData, SalvageReport]:
    """Recover the maximal structurally-valid prefix of ``blob``.

    Never raises on malformed content.  Per-section recovery: an intact
    magic/comment/header yields whatever complete bucket counters and
    arc records follow; everything dropped or repaired is recorded in
    the returned :class:`SalvageReport`, and the same facts are attached
    to ``ProfileData.warnings`` so downstream analysis stays honest.

    The recovered data of a byte-perfect file is identical to a strict
    parse and its report is ``clean`` — the fuzz suite's "no silent
    lie" invariant.
    """
    report = SalvageReport(source=source, total_bytes=len(blob))
    pos = 0

    def finish(
        histogram: Histogram | None = None,
        arcs: list[RawArc] | None = None,
        runs: int = 1,
        comment: str = "",
    ) -> tuple[ProfileData, SalvageReport]:
        report.consumed_bytes = pos
        data = ProfileData(
            histogram if histogram is not None else Histogram(0, 0, []),
            arcs or [],
            runs=max(runs, 1),
            comment=comment,
            warnings=report.warnings(),
        )
        return data, report

    # magic: without it there is no valid prefix at all.
    if blob[: len(MAGIC)] != MAGIC:
        report.add_drop(
            "bad magic: not a profile data file (or wrong version); "
            "nothing recovered"
        )
        return finish()
    pos = len(MAGIC)
    report.add_section("magic")

    # comment
    if len(blob) - pos < _COMMENT_LEN.size:
        report.add_drop("file ends inside the comment length field")
        return finish()
    comment_len = _COMMENT_LEN.unpack_from(blob, pos)[0]
    pos += _COMMENT_LEN.size
    raw_comment = blob[pos : pos + comment_len]
    comment = raw_comment.decode("utf-8", errors="replace")
    if len(raw_comment) < comment_len:
        pos += len(raw_comment)
        report.add_drop(
            f"comment truncated ({len(raw_comment)}/{comment_len} bytes); "
            "header, histogram and arcs lost"
        )
        return finish(comment=comment)
    pos += comment_len
    try:
        raw_comment.decode("utf-8")
    except UnicodeDecodeError:
        report.add_note(
            "comment is not valid UTF-8; bad bytes replaced with U+FFFD"
        )
    report.add_section("comment")

    # header
    if len(blob) - pos < _HEADER.size:
        report.add_drop(
            f"header truncated ({len(blob) - pos}/{_HEADER.size} bytes); "
            "histogram and arcs lost"
        )
        return finish(comment=comment)
    runs, low_pc, high_pc, nbuckets, profrate = _HEADER.unpack_from(blob, pos)
    pos += _HEADER.size
    report.add_section("header")
    report.buckets_expected = nbuckets
    if runs == 0:
        report.add_note(RUNS_ZERO_WARNING)
    if profrate <= 0:
        report.add_note(
            f"impossible profrate {profrate}; "
            f"substituting the default {DEFAULT_PROFRATE} Hz"
        )
        profrate = DEFAULT_PROFRATE
    bounds_ok = high_pc >= low_pc
    if not bounds_ok:
        report.add_drop(
            f"impossible histogram bounds (high_pc {high_pc:#x} below "
            f"low_pc {low_pc:#x}); bucket counts dropped"
        )
    elif nbuckets == 0 and high_pc > low_pc:
        report.add_drop(
            "non-empty address range declared with zero buckets; "
            "histogram range collapsed"
        )
        high_pc = low_pc

    # bucket counters: keep every complete one that is actually present.
    avail_buckets = (len(blob) - pos) // _BUCKET.size
    nread = min(nbuckets, avail_buckets)
    counts = list(struct.unpack_from(f"<{nread}I", blob, pos))
    report.buckets_read = nread if bounds_ok else 0
    if nread < nbuckets:
        pos += nread * _BUCKET.size
        report.add_drop(
            f"histogram truncated: {nread}/{nbuckets} buckets recovered"
        )
        report.add_drop("arc table lost (file ends inside the histogram)")
        histogram = _partial_histogram(
            low_pc, high_pc, nbuckets, counts, profrate, bounds_ok
        )
        return finish(histogram, runs=runs, comment=comment)
    pos += nbuckets * _BUCKET.size
    report.add_section("buckets")
    histogram = _partial_histogram(
        low_pc, high_pc, nbuckets, counts, profrate, bounds_ok
    )

    # arc table
    if len(blob) - pos < _NARCS.size:
        report.add_drop("arc table lost (no arc count field)")
        return finish(histogram, runs=runs, comment=comment)
    narcs = _NARCS.unpack_from(blob, pos)[0]
    pos += _NARCS.size
    report.arcs_expected = narcs
    avail_arcs = (len(blob) - pos) // _ARC.size
    arcs_read = min(narcs, avail_arcs)
    arcs = [
        RawArc(from_pc, self_pc, count)
        for from_pc, self_pc, count in _ARC.iter_unpack(
            blob[pos : pos + arcs_read * _ARC.size]
        )
    ]
    pos += arcs_read * _ARC.size
    report.arcs_read = arcs_read
    if arcs_read < narcs:
        report.add_drop(
            f"arc table truncated: {arcs_read}/{narcs} arcs recovered"
        )
        return finish(histogram, arcs, runs=runs, comment=comment)
    report.add_section("arcs")
    trailing = len(blob) - pos
    if trailing:
        report.add_note(f"{trailing} trailing byte(s) after the arc records ignored")
    return finish(histogram, arcs, runs=runs, comment=comment)


def _partial_histogram(
    low_pc: int,
    high_pc: int,
    nbuckets: int,
    counts: list[int],
    profrate: int,
    bounds_ok: bool,
) -> Histogram:
    """A consistent histogram over however many buckets survived.

    When only a prefix of the declared buckets was recovered, the upper
    bound shrinks proportionally so each surviving counter keeps the
    address range it had in the complete file.
    """
    if not bounds_ok or not counts:
        return Histogram(low_pc, low_pc, [], profrate) if bounds_ok else Histogram(0, 0, [], profrate)
    if len(counts) == nbuckets:
        return Histogram(low_pc, high_pc, counts, profrate)
    width = (high_pc - low_pc) / nbuckets
    shrunk_high = low_pc + max(math.ceil(width * len(counts)), 1)
    return Histogram(low_pc, min(shrunk_high, high_pc), counts, profrate)

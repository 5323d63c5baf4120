"""Bulk arc accumulation: condensing ``(from_pc, self_pc)`` records.

Every profiled run appends one 20-byte ``<QQI`` record per distinct
call site (§5: the monitoring routine hashes caller/callee pairs); a
fleet merge sums the counts of equal pairs across thousands of runs.
The canonical state is a ``(from_pc, self_pc) -> count`` dict — every
consumer (``result()`` materialization, digests, stats) reads that —
so the two tables differ only in how wire blobs reach the dict:

* :class:`ArcTable` — the reference: ``struct.iter_unpack`` and one
  dict update per record.  It is also the production fold where numpy
  is absent.
* :class:`NumpyArcTable` — the production fold where numpy imports,
  with *deferred* condensing: blobs are kept as they arrived and
  condensed when the table is read or once
  :data:`MAX_PENDING_RECORDS` records are pending.  A flush whose blobs
  all hold the same keys in the same order (many runs of one image)
  sums the count column; any other flush groups every pending record
  with one sort + ``add.reduceat`` at C speed (a single u64-key sort
  when both PCs fit 32 bits, a two-key lexsort otherwise).  Counts are
  summed in u64 (exact: reaching 2**64 would need 2**32 pending
  records) and enter the dict as python ints, so cross-flush totals are
  unbounded and identical to the reference.

Addition of non-negative integers is commutative and exact, so both
orders of summation produce the same table.
"""

from __future__ import annotations

import struct

#: Wire shape of one arc record (kept in sync with repro.gmon.format;
#: duplicated here so the kernels stay importable below the gmon layer).
_ARC = struct.Struct("<QQI")

#: Pending records at which :class:`NumpyArcTable` condenses its pending
#: blobs (about 1.3 MB of records): without the bound, a merge would hold
#: every input's arc blob until the table is next read.
MAX_PENDING_RECORDS = 65_536


class ArcTable:
    """Reference arc table: per-record dict updates."""

    def __init__(self) -> None:
        self._d: dict[tuple[int, int], int] = {}

    # -- feeding ----------------------------------------------------------

    def fold_blob(self, blob: bytes) -> "ArcTable":
        """Add every ``<QQI`` record of a packed arc blob."""
        d = self._d
        get = d.get
        for from_pc, self_pc, count in _ARC.iter_unpack(blob):
            k = (from_pc, self_pc)
            d[k] = get(k, 0) + count
        return self

    def fold_items(self, items) -> "ArcTable":
        """Add ``(from_pc, self_pc, count)`` triples."""
        d = self._d
        get = d.get
        for from_pc, self_pc, count in items:
            k = (from_pc, self_pc)
            d[k] = get(k, 0) + count
        return self

    # -- results ----------------------------------------------------------

    def as_dict(self) -> dict[tuple[int, int], int]:
        """The condensed table itself; treat as read-only."""
        return self._d

    def sorted_items(self):
        """``((from_pc, self_pc), count)`` pairs in ascending key order."""
        return sorted(self.as_dict().items())

    def __len__(self) -> int:
        return len(self.as_dict())

    def total_count(self) -> int:
        """Sum of all traversal counts."""
        return sum(self.as_dict().values())


class NumpyArcTable(ArcTable):
    """Numpy fast path: keep blobs, condense them in bulk."""

    def __init__(self) -> None:
        super().__init__()
        self._pending: list = []  # wire blobs, not yet condensed
        self._npending = 0  # records across self._pending

    def fold_blob(self, blob: bytes) -> "NumpyArcTable":
        if blob:
            self._pending.append(blob)
            self._npending += len(blob) // _ARC.size
            if self._npending >= MAX_PENDING_RECORDS:
                self._flush()
        return self

    def _flush(self) -> None:
        if not self._pending:
            return
        import numpy as np

        # One bytes join, then one structured view: concatenating
        # per-blob structured arrays instead costs ~15x more.
        blobs = self._pending
        rec = np.frombuffer(
            b"".join(blobs),
            dtype=np.dtype([("f", "<u8"), ("s", "<u8"), ("c", "<u4")]),
        )
        self._pending = []
        self._npending = 0
        if all(len(b) == len(blobs[0]) for b in blobs):
            # A fleet is many runs of one image, and its files usually
            # record the same call sites in the same order.  When every
            # pending blob has the first one's keys, the counts sum
            # column-wise with no sort at all.
            grid = rec.reshape(len(blobs), -1)
            f, s = grid["f"], grid["s"]
            if (f == f[0]).all() and (s == s[0]).all():
                froms = f[0].tolist()
                selfs = s[0].tolist()
                sums = grid["c"].sum(axis=0, dtype=np.uint64)
                self._add(froms, selfs, sums)
                return
        f, s = rec["f"], rec["s"]
        if int(f.max()) < 1 << 32 and int(s.max()) < 1 << 32:
            # PCs fit 32 bits (every VM image here, and most real ones):
            # pack the pair into one u64 so grouping needs a single-key
            # sort instead of a two-key lexsort — ~4x faster, and the
            # sums are unchanged (integer addition is commutative).
            key = (f << np.uint64(32)) | s
            order = np.argsort(key)
            ks = key[order]
            c = rec["c"][order].astype(np.uint64)
            starts = np.flatnonzero(
                np.concatenate(([True], ks[1:] != ks[:-1]))
            )
            sums = np.add.reduceat(c, starts)
            uk = ks[starts]
            froms = (uk >> np.uint64(32)).tolist()
            selfs = (uk & np.uint64(0xFFFFFFFF)).tolist()
        else:
            order = np.lexsort((s, f))
            fo = f[order]
            so = s[order]
            c = rec["c"][order].astype(np.uint64)
            starts = np.flatnonzero(
                np.concatenate(
                    ([True], (fo[1:] != fo[:-1]) | (so[1:] != so[:-1]))
                )
            )
            sums = np.add.reduceat(c, starts)
            froms = fo[starts].tolist()
            selfs = so[starts].tolist()
        self._add(froms, selfs, sums)

    def _add(self, froms, selfs, sums) -> None:
        d = self._d
        get = d.get
        for k, count in zip(zip(froms, selfs), sums.tolist()):
            d[k] = get(k, 0) + count

    def as_dict(self) -> dict[tuple[int, int], int]:
        self._flush()
        return self._d

"""Header peeking, digests, and the precheck cache.

Merging a fleet of gmon files dies on the *last* incompatible file if
compatibility is only discovered while summing.  The driver instead
peeks every input's fixed-size header first — a few hundred bytes per
file via :func:`repro.gmon.peek_gmon_header` — and rejects (or skips)
mismatches before any bucket or arc data is parsed.

A :class:`HeaderKey` is the layout identity two profiles must share to
be summable: histogram bounds, bucket count, clock rate.  Its
``digest()`` is a short stable hash of that identity — what the
structured :class:`~repro.errors.MergeError` and the skip log print so
an operator staring at 10,000 paths can grep for the odd one out.

The :class:`HeaderCache` memoizes peeks by ``(size, mtime_ns)`` so
repeated scans over a mostly-static fleet directory (a cron job
re-merging every hour, say) only stat unchanged files.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass

from repro.gmon.format import GmonHeader, peek_gmon_header

_KEY_PACK = struct.Struct("<QQII")


@dataclass(frozen=True)
class HeaderKey:
    """The summability identity of a profile: its histogram layout."""

    low_pc: int
    high_pc: int
    nbuckets: int
    profrate: int

    @classmethod
    def of(cls, header: GmonHeader) -> "HeaderKey":
        return cls(header.low_pc, header.high_pc, header.nbuckets,
                   header.profrate)

    def digest(self) -> str:
        """A short stable content digest of the layout."""
        packed = _KEY_PACK.pack(
            self.low_pc, self.high_pc, self.nbuckets, self.profrate
        )
        return hashlib.blake2b(packed, digest_size=6).hexdigest()

    def describe(self) -> str:
        """Human-readable layout, digest included."""
        return (
            f"[{self.low_pc:#x},{self.high_pc:#x})x{self.nbuckets}"
            f"@{self.profrate}Hz (digest {self.digest()})"
        )


#: Read/stat retries :meth:`HeaderCache.peek` makes while the file on
#: disk keeps being replaced under it before giving up on caching.
_PEEK_RETRIES = 8


class HeaderCache:
    """Stat-validated memo of peeked headers, keyed by path.

    Safe for concurrent use from several threads, and safe against the
    stat/read race: a file atomically rewritten *between* the stat and
    the header read must never leave the cache pairing one version's
    stat identity with another version's header (a "torn" entry that
    would then be served as a hit for the new file).  ``peek`` brackets
    every read with two stats and only caches when they agree; if the
    file keeps changing it returns the freshest header it read without
    caching it at all.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, int, GmonHeader]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def peek(self, path) -> GmonHeader:
        """Header of ``path``, re-read only when the file changed."""
        spath = os.fspath(path)
        st = os.stat(spath)
        ident = (st.st_size, st.st_mtime_ns)
        with self._lock:
            cached = self._entries.get(spath)
            if cached is not None and (cached[0], cached[1]) == ident:
                self.hits += 1
                return cached[2]
            self.misses += 1
        for _ in range(_PEEK_RETRIES):
            header = peek_gmon_header(spath)
            st2 = os.stat(spath)
            after = (st2.st_size, st2.st_mtime_ns)
            if after == ident:
                # The stat identity bracketed the read unchanged: this
                # header really belongs to this (size, mtime) pair.
                with self._lock:
                    self._entries[spath] = (ident[0], ident[1], header)
                return header
            ident = after  # the file was replaced mid-peek; try again
        return header  # still changing: serve it fresh, cache nothing

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


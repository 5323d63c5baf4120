"""Header peeking and layout digests.

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
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.gmon.format import GmonHeader

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

"""Answers the benchmark checks against, computed without the code under test.

Nothing here imports ``repro``.  The canned programs' outputs come from
plain-Python restatements of what each Rel program computes; the
generated programs' output comes from evaluating the generator's own
model (:class:`~benchmarks.e2e.workloads.GenProgram`), not the Rel
text; and the gmon byte layout is re-implemented from its documented
table (see ``repro.gmon.format``) so that a merged ``gmon.sum`` can be
predicted byte for byte from the generated inputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

MAGIC = b"gmon\x01\x00"
_HEADER = struct.Struct("<IQQII")  # runs, low_pc, high_pc, nbuckets, profrate
_ARC = struct.Struct("<QQI")  # from_pc, self_pc, count

# -- canned Rel programs --------------------------------------------------------


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _primes_below(limit: int) -> int:
    flags = bytearray(limit)
    count = 0
    for i in range(2, limit):
        if not flags[i]:
            count += 1
            flags[i * i :: i] = b"\x01" * len(range(i * i, limit, i))
    return count


def canned_output(name: str, size: dict) -> list[int]:
    """What the canned Rel program ``name`` prints, per ``repro.lang.programs``."""
    if name == "fib":
        return [_fib(size["n"])]
    if name == "even_odd":
        return [1 if size["n"] % 2 == 0 else 0]
    if name == "abstraction":
        return [1, 2, 3] * size["iterations"]
    if name == "sieve":
        return [_primes_below(size["limit"])]
    if name == "gcd_chain":
        return [sum(_gcd(i * 91, i + 133) for i in range(1, size["rounds"] + 1))]
    if name == "classify":
        rounds = size["rounds"]
        return [sum(i if i % 8 else 2 * i for i in range(1, rounds + 1))]
    raise KeyError(f"no oracle for canned program {name!r}")


# -- generated Rel programs ---------------------------------------------------


def generated_output(program) -> list[int]:
    """What a generated program prints: ``acc`` after every routine call.

    Mirrors the semantics the generator emits (see
    ``workloads.render_source``): every value stays non-negative, so
    truncating and flooring ``%`` agree.
    """
    routines = program.routines

    @lru_cache(maxsize=None)
    def call(k: int, d: int) -> int:
        r = routines[k]
        v = d * r.const + k
        for i in range(r.loop):
            v = (v * 3 + i) % 65521
        if d > 0:
            for j in r.callees:
                v = v + call(j, d - 1)
        return v % 65521

    acc = 0
    for _ in range(program.rounds):
        for k in range(len(routines)):
            acc = (acc * 31 + call(k, program.depth)) % 1000003
    return [acc]


# -- the gmon wire format -----------------------------------------------------


@dataclass
class Gmon:
    """One decoded gmon file, with the offsets needed to patch it."""

    comment: bytes
    runs: int
    low_pc: int
    high_pc: int
    profrate: int
    counts: list[int]
    arcs: list[tuple[int, int, int]]
    buckets_at: int  # byte offset of bucket 0
    arcs_at: int  # byte offset of arc record 0


def decode_gmon(blob: bytes) -> Gmon:
    """Parse the documented layout: magic, comment, header, buckets, arcs."""
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("not a gmon file")
    pos = len(MAGIC)
    (clen,) = struct.unpack_from("<H", blob, pos)
    pos += 2
    comment = blob[pos : pos + clen]
    pos += clen
    runs, low, high, nbuckets, profrate = _HEADER.unpack_from(blob, pos)
    pos += _HEADER.size
    buckets_at = pos
    counts = list(struct.unpack_from(f"<{nbuckets}I", blob, pos))
    pos += 4 * nbuckets
    (narcs,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    arcs_at = pos
    arcs = [_ARC.unpack_from(blob, pos + i * _ARC.size) for i in range(narcs)]
    if pos + narcs * _ARC.size != len(blob):
        raise ValueError("trailing bytes after the arc records")
    return Gmon(comment, runs, low, high, profrate, counts, arcs,
                buckets_at, arcs_at)


def encode_gmon(comment: bytes, runs: int, low_pc: int, high_pc: int,
                profrate: int, counts, arcs) -> bytes:
    """The documented layout, with arcs condensed and sorted by address."""
    merged: dict[tuple[int, int], int] = {}
    for f, s, c in arcs:
        merged[(f, s)] = merged.get((f, s), 0) + c
    out = [
        MAGIC,
        struct.pack("<H", len(comment)),
        comment,
        _HEADER.pack(runs, low_pc, high_pc, len(counts), profrate),
        struct.pack(f"<{len(counts)}I", *counts),
        struct.pack("<I", len(merged)),
    ]
    out += [_ARC.pack(f, s, c) for (f, s), c in sorted(merged.items())]
    return b"".join(out)


class FoldOracle:
    """The expected sum of perturbed copies of a few base profiles.

    Every generated upload or fleet file is base ``b`` plus a handful of
    bucket and arc increments (see ``workloads.Perturbation``), so the
    sum is ``sum(uses[b] * base[b]) + sum(increments)`` — computed here
    per bucket and per arc, with no help from ``repro``.
    """

    def __init__(self, bases: list[Gmon]) -> None:
        self.bases = bases
        self.uses = [0] * len(bases)
        self.bucket_delta: dict[int, int] = {}
        self.arc_delta: dict[tuple[int, int], int] = {}

    def add(self, p) -> None:
        """Account for one perturbed input."""
        self.uses[p.base] += 1
        for i, d in p.buckets:
            self.bucket_delta[i] = self.bucket_delta.get(i, 0) + d
        arcs = self.bases[p.base].arcs
        for i, d in p.arcs:
            key = arcs[i][:2]
            self.arc_delta[key] = self.arc_delta.get(key, 0) + d

    def expected(self) -> bytes:
        """The merged gmon bytes every correct merge must produce."""
        first = self.bases[0]
        counts = [0] * len(first.counts)
        arcs: list[tuple[int, int, int]] = []
        for base, n in zip(self.bases, self.uses):
            if n:
                for i, c in enumerate(base.counts):
                    counts[i] += n * c
                arcs += [(f, s, n * c) for f, s, c in base.arcs]
        for i, d in self.bucket_delta.items():
            counts[i] += d
        arcs += [(f, s, d) for (f, s), d in self.arc_delta.items()]
        return encode_gmon(b"", sum(self.uses), first.low_pc, first.high_pc,
                           first.profrate, counts, arcs)

"""Bulk histogram-bucket summation.

A fleet merge folds thousands of equal-layout bucket vectors into one.
The wire form (:class:`repro.gmon.format.RawGmon`) keeps each vector
as the packed little-endian u32 blob it arrived in, so the fold can
consume raw bytes without ever materializing per-input lists.

Two accumulators, one contract: after any sequence of
``fold_blob`` / ``fold_seq`` calls, :meth:`to_list`
returns exactly the per-bucket integer sums — bucket counts are
non-negative integers, so both are exact and the results are
identical, not merely close.

* :class:`BucketAccumulator` — the reference: one python loop
  iteration per bucket per input.  It is also the production fold
  where numpy is absent.
* :class:`NumpyBucketAccumulator` — the production fold where numpy
  imports: ``np.frombuffer`` views summed into a u64 vector.
  Exactness holds while every lane stays below 2**64, which a
  conservative per-lane bound enforces; if the bound ever approaches
  overflow (≈2**32 maximally-saturated inputs) the accumulator demotes
  itself to exact per-lane python ints.
"""

from __future__ import annotations

import struct

from repro.errors import KernelBackendError

#: Lane-overflow guard for the u64 vector: demote to exact python ints
#: before any per-lane sum could reach 2**64.
_LANE_LIMIT = 1 << 64


class BucketAccumulator:
    """Reference bucket accumulator: per-bucket scalar addition."""

    def __init__(self) -> None:
        self._buf: list[int] | None = None

    # -- feeding ----------------------------------------------------------

    def fold_blob(self, blob: bytes) -> "BucketAccumulator":
        """Add one packed little-endian u32 bucket vector."""
        n = len(blob) >> 2
        return self.fold_seq(struct.unpack(f"<{n}I", blob))

    def fold_seq(self, counts) -> "BucketAccumulator":
        """Add one bucket vector given as a sequence of ints."""
        n = len(counts)
        if self._buf is None:
            buf = [0] * n
            for i in range(n):
                buf[i] = counts[i]
            self._buf = buf
            return self
        buf = self._buf
        self._check(n, len(buf))
        for i in range(n):
            buf[i] += counts[i]
        return self

    @staticmethod
    def _check(got: int, want: int) -> None:
        if got != want:
            raise KernelBackendError(
                f"bucket vector length {got} does not match the "
                f"accumulated layout ({want} buckets)"
            )

    # -- results ----------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True while nothing has been folded."""
        return self._buf is None

    def to_list(self) -> list[int]:
        """The per-bucket sums as a fresh list ([] while empty)."""
        return list(self._buf) if self._buf is not None else []

    def total(self) -> int:
        """Sum over all buckets."""
        return sum(self._buf) if self._buf is not None else 0


class NumpyBucketAccumulator(BucketAccumulator):
    """Numpy fast path: in-place u64 vector adds over blob views."""

    def __init__(self) -> None:
        self._vec = None  # np.ndarray[u64] | None
        self._bound = 0
        self._exact: list[int] | None = None

    def fold_blob(self, blob: bytes) -> "NumpyBucketAccumulator":
        import numpy as np

        lanes = np.frombuffer(blob, dtype="<u4")
        if self._exact is not None:
            self._check(len(lanes), len(self._exact))
            vals = lanes.tolist()
            buf = self._exact
            for i in range(len(vals)):
                buf[i] += vals[i]
            return self
        if self._vec is None:
            self._vec = lanes.astype(np.uint64)
            self._bound = 0xFFFFFFFF
            return self
        self._check(len(lanes), len(self._vec))
        if self._bound + 0xFFFFFFFF >= _LANE_LIMIT:
            self._demote()
            return self.fold_blob(blob)
        self._vec += lanes
        self._bound += 0xFFFFFFFF
        return self

    def fold_seq(self, counts) -> "NumpyBucketAccumulator":
        n = len(counts)
        if self._vec is not None:
            self._check(n, len(self._vec))
        if self._exact is None and n:
            peak = max(counts)
            if peak >= _LANE_LIMIT or self._bound + peak >= _LANE_LIMIT:
                self._demote(n)
            else:
                import numpy as np

                vals = np.asarray(
                    counts if isinstance(counts, (list, tuple))
                    else list(counts),
                    dtype=np.uint64,
                )
                if self._vec is None:
                    self._vec = vals
                else:
                    self._vec += vals
                self._bound += peak
                return self
        if self._exact is None:
            # n == 0 on a fresh (or zero-bucket) layout: record it like
            # the reference does.
            self._exact = []
            return self
        self._check(n, len(self._exact))
        buf = self._exact
        for i in range(n):
            buf[i] += counts[i]
        return self

    def _demote(self, n: int = 0) -> None:
        self._exact = self._vec.tolist() if self._vec is not None else [0] * n
        self._vec = None

    @property
    def empty(self) -> bool:
        return self._vec is None and self._exact is None

    def to_list(self) -> list[int]:
        if self._exact is not None:
            return list(self._exact)
        return self._vec.tolist() if self._vec is not None else []

    def total(self) -> int:
        if self._exact is not None:
            return sum(self._exact)
        return int(self._vec.sum(dtype=object)) if self._vec is not None else 0

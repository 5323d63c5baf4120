"""Vectorized bucket→routine apportionment (§3.2).

``Histogram.assign_samples`` charges each bucket's ticks to the
routines overlapping it, weighted by overlap fraction.  The geometry —
which buckets a routine touches and with what weight — depends only on
the histogram *layout* (``low_pc``/``high_pc``/bucket count) and the
symbol table, never on the counts, so it is precomputed once per
layout as a :class:`SymbolSpans` and reused across every input of a
fleet (and across pipeline runs, via the ``spans`` kind of the
:class:`~repro.pipeline.cache.AnalysisCache`).

Each symbol's span is compressed into segments:

* ``('r', a, b)`` — a maximal run of buckets ``[a, b)`` whose overlap
  weight is *exactly* 1.0 (the common case: every bucket interior to
  the routine).  Its contribution is the plain integer sum of the
  bucket counts.
* ``('e', idx, w)`` — a single bucket with fractional weight ``w``
  (the routine's edges, and every bucket of routines narrower than a
  bucket).

Why every backend is bit-identical to every other, not merely close:
evaluation adds segment contributions in ascending bucket order —
edges as a scalar ``counts[idx] * w`` multiply, runs as
``float(integer_sum)`` — and the three backends differ *only* in how
a run's integer sum is computed: per-bucket python loop (python),
``itertools.accumulate`` prefix sums (array), u64 ``np.cumsum``
(numpy).  Integer arithmetic is exact in all three (sums below 2**53
convert to float losslessly; the guard in :func:`apportion_numpy`
keeps u64 exact), so all backends perform the same sequence of float
operations on the same values.

Relative to the historical per-bucket evaluation (which added every
run bucket to the accumulator one at a time), collapsing a run into
one addition *reassociates* the float sum; when a fractional edge
precedes a run the result can differ in the last ULP.  That is a
deliberate, documented semantics choice: the segment walk is now the
definition, all backends implement it exactly, and the equivalence
suite pins both the cross-backend bit-identity and the ≤1e-9 relative
agreement with the historical formula (listings round to 0.01s, so
the goldens are insensitive to it).
"""

from __future__ import annotations

from itertools import accumulate


class SymbolSpans:
    """Precomputed overlap segments for one (layout, symbol table).

    Attributes:
        low_pc, high_pc, nbuckets: the histogram layout this was built
            for (evaluating against any other layout is a caller bug).
        entries: ``(symbol_name, segments)`` in symbol-table order.
    """

    __slots__ = ("low_pc", "high_pc", "nbuckets", "entries")

    def __init__(self, low_pc, high_pc, nbuckets, entries):
        self.low_pc = low_pc
        self.high_pc = high_pc
        self.nbuckets = nbuckets
        self.entries = entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SymbolSpans([{self.low_pc:#x},{self.high_pc:#x})"
            f"x{self.nbuckets}, {len(self.entries)} symbols)"
        )


def build_spans(low_pc, high_pc, nbuckets, symbols) -> SymbolSpans:
    """Compute every symbol's overlap segments for one layout.

    The per-bucket formulas are lifted verbatim from the reference
    ``assign_samples`` loop, so the weights here are the exact floats
    the reference would have multiplied by.

    Only a routine's edge buckets are evaluated.  When the bucket width
    is a whole number of address units, every quantity in the formula
    is an integer-valued float, so a bucket lying wholly inside the
    routine has weight exactly 1.0; that interior run ``[a, b)`` is
    found with integer arithmetic and emitted without visiting its
    buckets.  For any other width the interior is left empty and the
    same loop walks every bucket.
    """
    entries = []
    if nbuckets:
        span = high_pc - low_pc
        width = span / nbuckets
        whole = span > 0 and span % nbuckets == 0
        unit = span // nbuckets if whole else 0
        for sym in symbols:
            if sym.end <= low_pc or sym.address >= high_pc:
                continue
            first = max(int((sym.address - low_pc) / width) - 1, 0)
            last = min(int((sym.end - low_pc) / width) + 1, nbuckets - 1)
            if whole:  # buckets wholly inside [address, end)
                a = max(-((low_pc - sym.address) // unit), first)
                b = min((sym.end - low_pc) // unit, last + 1)
            else:
                a = b = first
            segs: list[tuple] = []
            run_start = -1
            idx = first
            while idx <= last:
                if idx == a and a < b:  # the interior: every weight 1.0
                    if run_start < 0:
                        run_start = a
                    idx = b
                    continue
                b_lo = low_pc + idx * width
                overlap = min(b_lo + width, sym.end) - max(b_lo, sym.address)
                w = (overlap / width) if overlap > 0 else 0.0
                if w == 1.0:
                    if run_start < 0:
                        run_start = idx
                else:
                    if run_start >= 0:
                        segs.append(("r", run_start, idx))
                        run_start = -1
                    if w > 0.0:
                        segs.append(("e", idx, w))
                idx += 1
            if run_start >= 0:
                segs.append(("r", run_start, last + 1))
            if segs:
                entries.append((sym.name, segs))
    return SymbolSpans(low_pc, high_pc, nbuckets, entries)


def spans_for(symbols, low_pc, high_pc, nbuckets) -> SymbolSpans:
    """:func:`build_spans`, memoized on the symbol-table instance.

    A symbol table is immutable once built (the pipeline digests rely
    on this already), so spans can live with it keyed by layout —
    repeated analyses of same-layout profiles (the PGO loop, the
    consistency checker) pay the geometry walk once.
    """
    memo = getattr(symbols, "_kernel_spans", None)
    if memo is None:
        memo = {}
        try:
            symbols._kernel_spans = memo
        except AttributeError:  # slotted/foreign table: skip memoization
            return build_spans(low_pc, high_pc, nbuckets, symbols)
    key = (low_pc, high_pc, nbuckets)
    spans = memo.get(key)
    if spans is None:
        spans = memo[key] = build_spans(low_pc, high_pc, nbuckets, symbols)
    return spans


def _evaluate(spans: SymbolSpans, counts, sec_per_tick, run_sum) -> dict:
    """Shared segment walk; ``run_sum(a, b)`` supplies run integers."""
    times: dict[str, float] = {}
    for name, segs in spans.entries:
        acc = 0.0
        for seg in segs:
            if seg[0] == "r":
                acc += float(run_sum(seg[1], seg[2]))
            else:
                acc += counts[seg[1]] * seg[2]
        if acc:
            times[name] = acc * sec_per_tick
    return times


def apportion_python(spans: SymbolSpans, counts, sec_per_tick) -> dict:
    """Reference evaluator: per-bucket python loop inside each run."""

    def run_sum(a: int, b: int) -> int:
        total = 0
        for idx in range(a, b):
            total += counts[idx]
        return total

    return _evaluate(spans, counts, sec_per_tick, run_sum)


def apportion_array(spans: SymbolSpans, counts, sec_per_tick) -> dict:
    """Stdlib evaluator: one prefix-sum pass, O(1) per run."""
    if not spans.entries:
        return {}
    prefix = list(accumulate(counts, initial=0))
    return _evaluate(
        spans, counts, sec_per_tick, lambda a, b: prefix[b] - prefix[a]
    )


def apportion_numpy(spans: SymbolSpans, counts, sec_per_tick) -> dict:
    """Numpy evaluator: u64 cumulative sum, O(1) per run."""
    if not spans.entries:
        return {}
    n = len(counts)
    peak = max(counts) if n else 0
    if peak and peak * n >= 1 << 64:
        # Conservative u64-overflow guard; big ints stay exact in the
        # stdlib path.  Unreachable for wire-format inputs (u32 counts).
        return apportion_array(spans, counts, sec_per_tick)
    import numpy as np

    cs = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(np.asarray(counts, dtype=np.uint64), out=cs[1:])
    # Only the segment endpoints are ever read — index the u64 vector
    # directly instead of boxing every lane.  u64 -> int is exact, so
    # run sums equal the reference's python-int sums bit for bit.
    item = cs.item
    return _evaluate(
        spans, counts, sec_per_tick, lambda a, b: item(b) - item(a)
    )

"""Unit tests for repro.core.kernels: folds, spans, plans, factories.

The kernel contract is *exactness*, not closeness: the numpy folds must
equal the python reference integer-for-integer, and the prefix-sum
apportionment must produce bit-identical dicts.  Tests parametrized
over ``python`` and ``numpy`` run each implementation class against
hand-built inputs (the ``numpy`` ids skip where numpy is absent); the
property sweep lives in ``test_kernels_equivalence``.  These tests pin
the mechanics — which fold runs where, the overflow demotion paths,
error shapes, memoization.
"""

from __future__ import annotations

import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.cycles import number_graph
from repro.core.kernels import arcs as karcs
from repro.core.kernels import buckets as kbuckets
from repro.core.kernels import prop as kprop
from repro.core.kernels.buckets import _LANE_LIMIT
from repro.core.kernels.spans import (
    apportion,
    apportion_python,
    build_spans,
    spans_for,
)
from repro.core.symbols import Symbol, SymbolTable
from repro.errors import KernelBackendError
from repro.fleet import ProfileAccumulator, tree_reduce

from tests.helpers import graph_from_edges, make_symbols

#: The two implementations of each fold: the reference and numpy's.
IMPLS = [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not kernels.HAVE_NUMPY, reason="numpy not available")),
]

BUCKETS = {
    "python": kbuckets.BucketAccumulator,
    "numpy": kbuckets.NumpyBucketAccumulator,
}
ARCS = {"python": karcs.ArcTable, "numpy": karcs.NumpyArcTable}


def pack_buckets(counts) -> bytes:
    return struct.pack(f"<{len(counts)}I", *counts)


def pack_arcs(triples) -> bytes:
    return b"".join(struct.pack("<QQI", f, s, c) for f, s, c in triples)


# -- the production factories ------------------------------------------------


class TestFactories:
    def test_numpy_folds_when_numpy_imports(self):
        if not kernels.HAVE_NUMPY:
            pytest.skip("numpy not available")
        assert type(kernels.bucket_accumulator()) is BUCKETS["numpy"]
        assert type(kernels.arc_table()) is ARCS["numpy"]
        assert kernels.default_backend_name() == "numpy"

    def test_reference_folds_without_numpy(self, monkeypatch):
        """The factories read HAVE_NUMPY at call time."""
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        assert type(kernels.bucket_accumulator()) is BUCKETS["python"]
        assert type(kernels.arc_table()) is ARCS["python"]
        assert kernels.default_backend_name() == "python"


# -- bucket accumulators -----------------------------------------------------


@pytest.mark.parametrize("backend", IMPLS)
class TestBuckets:
    def make(self, backend):
        return BUCKETS[backend]()

    def test_blob_and_seq_folds_agree_with_reference(self, backend):
        vectors = [
            [0, 1, 2, 3, 4],
            [5, 0, 0, 0, 1],
            [0xFFFFFFFF, 0xFFFFFFFF, 0, 1, 2],
        ]
        acc = self.make(backend)
        ref = kbuckets.BucketAccumulator()
        for i, v in enumerate(vectors):
            if i % 2:
                acc.fold_seq(v)
                ref.fold_seq(v)
            else:
                acc.fold_blob(pack_buckets(v))
                ref.fold_blob(pack_buckets(v))
        assert acc.to_list() == ref.to_list()
        assert acc.total() == ref.total()

    def test_empty_accumulator(self, backend):
        acc = self.make(backend)
        assert acc.empty
        assert acc.to_list() == []
        assert acc.total() == 0

    def test_zero_bucket_layout(self, backend):
        acc = self.make(backend)
        acc.fold_seq([])
        assert not acc.empty
        assert acc.to_list() == []

    def test_length_mismatch_raises(self, backend):
        acc = self.make(backend).fold_seq([1, 2, 3])
        with pytest.raises(KernelBackendError):
            acc.fold_seq([1, 2])
        with pytest.raises(KernelBackendError):
            acc.fold_seq([])
        with pytest.raises(KernelBackendError):
            acc.fold_blob(pack_buckets([1, 2, 3, 4]))
        assert acc.to_list() == [1, 2, 3]

    def test_fold_of_empty_is_identity(self, backend):
        """The empty profile's all-zero vector is the fold's identity."""
        acc = self.make(backend).fold_seq([7, 8])
        acc.fold_seq([0, 0])
        acc.fold_blob(pack_buckets([0, 0]))
        assert acc.to_list() == [7, 8]

    def test_saturated_blob_storm(self, backend):
        """Many maximally-saturated wire inputs stay exact."""
        blob = pack_buckets([0xFFFFFFFF, 1, 0])
        acc = self.make(backend)
        for _ in range(50):
            acc.fold_blob(blob)
        assert acc.to_list() == [50 * 0xFFFFFFFF, 50, 0]

    def test_huge_seq_counts_demote_exactly(self, backend):
        """Counts near the u64 lane limit force the exact path."""
        big = _LANE_LIMIT - 1
        acc = self.make(backend)
        acc.fold_seq([big, 1])
        acc.fold_seq([big, 2])
        acc.fold_blob(pack_buckets([5, 5]))
        assert acc.to_list() == [2 * big + 5, 8]

    def test_demotion_mid_stream(self, backend):
        """Small folds, then an over-limit one, then small again."""
        acc = self.make(backend)
        acc.fold_seq([1, 2])
        acc.fold_seq([_LANE_LIMIT, 0])
        acc.fold_seq([3, 4])
        assert acc.to_list() == [_LANE_LIMIT + 4, 6]


# -- arc tables --------------------------------------------------------------

TRIPLES = [
    (0x1000, 0x2000, 3),
    (0x1004, 0x2000, 2),
    (0x1000, 0x2000, 5),  # duplicate pair, must condense
    (0xFFFFFFFFFFFF, 0x10, 0xFFFFFFFF),
]


@pytest.mark.parametrize("backend", IMPLS)
class TestArcs:
    def make(self, backend):
        return ARCS[backend]()

    def test_blob_fold_condenses(self, backend):
        t = self.make(backend).fold_blob(pack_arcs(TRIPLES))
        assert t.as_dict() == {
            (0x1000, 0x2000): 8,
            (0x1004, 0x2000): 2,
            (0xFFFFFFFFFFFF, 0x10): 0xFFFFFFFF,
        }
        assert len(t) == 3
        assert t.total_count() == 8 + 2 + 0xFFFFFFFF

    def test_items_fold_matches_blob_fold(self, backend):
        a = self.make(backend).fold_blob(pack_arcs(TRIPLES))
        b = self.make(backend).fold_items(TRIPLES)
        assert a.as_dict() == b.as_dict()

    def test_sorted_items_order(self, backend):
        t = self.make(backend).fold_items(TRIPLES)
        keys = [k for k, _ in t.sorted_items()]
        assert keys == sorted(keys)

    def test_empty_blob(self, backend):
        t = self.make(backend).fold_blob(b"")
        assert len(t) == 0
        assert t.as_dict() == {}

    def test_incremental_blobs_accumulate(self, backend):
        t = self.make(backend)
        t.fold_blob(pack_arcs([(1, 2, 3)]))
        t.fold_blob(pack_arcs([(1, 2, 4), (9, 9, 1)]))
        assert t.as_dict() == {(1, 2): 7, (9, 9): 1}

    def test_read_then_write_then_read(self, backend):
        """Reading (which condenses) must not lose later folds."""
        t = self.make(backend)
        t.fold_blob(pack_arcs([(1, 2, 3)]))
        assert t.as_dict() == {(1, 2): 3}
        t.fold_blob(pack_arcs([(1, 2, 10)]))
        assert t.as_dict() == {(1, 2): 13}


def test_numpy_arc_table_bounds_pending_records():
    """Pending blobs are condensed at the bound, not kept until read."""
    if not kernels.HAVE_NUMPY:
        pytest.skip("numpy not available")
    limit = karcs.MAX_PENDING_RECORDS
    blob = pack_arcs([(0x1000 + 4 * i, 0x2000 + 4 * (i % 7), i + 1)
                      for i in range(1000)])
    table = karcs.NumpyArcTable()
    reference = karcs.ArcTable()
    for _ in range(3 * limit // 1000):
        table.fold_blob(blob)
        reference.fold_blob(blob)
        assert sum(len(b) for b in table._pending) // karcs._ARC.size < limit
    assert table.as_dict() == reference.as_dict()


@pytest.mark.parametrize(
    "layout", ["shared", "callers-differ", "callees-differ", "varied"])
def test_numpy_arc_table_flush_paths(layout):
    """Every flush path condenses to the reference table.

    ``shared``: every blob holds the same keys in the same order (the
    column-sum path), duplicate pairs included; ``callers-differ`` and
    ``callees-differ``: equal lengths, one PC column permuted per blob;
    ``varied``: each blob its own key set and length.
    """
    if not kernels.HAVE_NUMPY:
        pytest.skip("numpy not available")
    import random

    rng = random.Random(7)
    froms = [0x1000 + 4 * rng.randrange(300) for _ in range(200)]
    selfs = [0x2000 + 4 * rng.randrange(20) for _ in range(200)]
    froms += froms[:5]  # duplicate pairs inside one blob
    selfs += selfs[:5]
    table = karcs.NumpyArcTable()
    reference = karcs.ArcTable()
    for _ in range(3 * karcs.MAX_PENDING_RECORDS // len(froms)):
        keys = list(zip(froms, selfs))
        if layout == "callers-differ":
            rng.shuffle(froms)
        elif layout == "callees-differ":
            rng.shuffle(selfs)
        elif layout == "varied":
            keys = keys[:rng.randrange(1, len(keys) + 1)]
            keys.append((0xFFFFFFFFFFFF, rng.randrange(1 << 40)))
        blob = pack_arcs([(f, s, rng.randrange(1 << 32)) for f, s in keys])
        table.fold_blob(blob)
        reference.fold_blob(blob)
    assert table.as_dict() == reference.as_dict()


# -- apportionment spans -----------------------------------------------------


class TestSpans:
    @pytest.mark.parametrize("counts", [
        [3, 0, 5, 7, 11, 2, 9],
        [1 << 62] * 7,  # sums far past u64: python ints stay exact
    ], ids=["fractional-edges", "huge-counts"])
    def test_prefix_sum_matches_reference(self, counts):
        symbols = make_symbols("a", "b", "c", "d")
        # 7 buckets over 400 addresses: every symbol has fractional edges
        spans = build_spans(0, 400, 7, symbols)
        ref = apportion_python(spans, counts, 0.01)
        assert ref  # the layout must actually produce times
        assert apportion(spans, counts, 0.01) == ref

    def test_empty_counts_give_empty_times(self):
        symbols = make_symbols("a")
        spans = build_spans(0, 100, 4, symbols)
        assert apportion(spans, [0] * 4, 0.01) == {}
        assert apportion_python(spans, [0] * 4, 0.01) == {}

    def test_zero_bucket_layout_has_no_entries(self):
        spans = build_spans(0, 100, 0, make_symbols("a"))
        assert spans.entries == []

    def test_out_of_range_symbols_skipped(self):
        symbols = make_symbols("a", "b")  # [0,100) and [100,200)
        spans = build_spans(100, 200, 4, symbols)
        assert [name for name, _ in spans.entries] == ["b"]

    def test_spans_for_memoizes_per_layout(self):
        symbols = make_symbols("a", "b")
        s1 = spans_for(symbols, 0, 200, 8)
        s2 = spans_for(symbols, 0, 200, 8)
        s3 = spans_for(symbols, 0, 200, 16)
        assert s1 is s2
        assert s3 is not s1 and s3.nbuckets == 16


def historical_spans(low_pc, high_pc, nbuckets, symbols):
    """The per-bucket span walk ``build_spans`` replaced: the definition.

    Every bucket a routine touches is evaluated with the overlap
    formula; runs of weight 1.0 are merged as they are met.
    """
    entries = []
    if nbuckets:
        width = (high_pc - low_pc) / nbuckets
        for sym in symbols:
            if sym.end <= low_pc or sym.address >= high_pc:
                continue
            first = max(int((sym.address - low_pc) / width) - 1, 0)
            last = min(int((sym.end - low_pc) / width) + 1, nbuckets - 1)
            segs: list[tuple] = []
            run_start = -1
            for idx in range(first, last + 1):
                b_lo = low_pc + idx * width
                overlap = min(b_lo + width, sym.end) - max(b_lo, sym.address)
                w = (overlap / width) if overlap > 0 else 0.0
                if w == 1.0:
                    if run_start < 0:
                        run_start = idx
                    continue
                if run_start >= 0:
                    segs.append(("r", run_start, idx))
                    run_start = -1
                if w > 0.0:
                    segs.append(("e", idx, w))
            if run_start >= 0:
                segs.append(("r", run_start, last + 1))
            if segs:
                entries.append((sym.name, segs))
    return entries


def exact(entries):
    """Entries with every float weight spelled bit for bit."""
    return [
        (name, [
            (kind, idx, w.hex() if isinstance(w, float) else w)
            for kind, idx, w in segs
        ])
        for name, segs in entries
    ]


@st.composite
def span_layouts(draw):
    """A histogram layout and a symbol table laid over (and past) it.

    Half the layouts have a whole-unit bucket width, half an arbitrary
    one.  Symbols may be narrower than a bucket, empty, or straddle
    ``low_pc``/``high_pc``; the table may be empty.
    """
    low_pc = draw(st.integers(0, 64))
    nbuckets = draw(st.integers(1, 40))
    if draw(st.booleans()):
        high_pc = low_pc + nbuckets * draw(st.integers(1, 9))
    else:
        high_pc = low_pc + draw(st.integers(1, 400))
    symbols, addr = [], max(low_pc - draw(st.integers(0, 30)), 0)
    for i in range(draw(st.integers(0, 12))):
        addr += draw(st.integers(0, 20))
        size = draw(st.one_of(st.integers(0, 3), st.integers(1, 120)))
        symbols.append(Symbol(addr, f"s{i}", addr + size))
        addr += size
    return low_pc, high_pc, nbuckets, SymbolTable(symbols)


class TestSpansMatchHistoricalLoop:
    """``build_spans`` skips interiors; the segments must not move."""

    @settings(max_examples=400, deadline=None)
    @given(span_layouts())
    def test_identical_to_per_bucket_walk(self, layout):
        low_pc, high_pc, nbuckets, symbols = layout
        assert exact(build_spans(low_pc, high_pc, nbuckets, symbols).entries) \
            == exact(historical_spans(low_pc, high_pc, nbuckets, symbols))

    @pytest.mark.parametrize("layout", [
        (0, 400, 7),     # fractional width: every bucket walked
        (0, 400, 100),   # width 4, like the fleet's scale 0.25
        (0, 400, 400),   # width 1, like scale 1.0
        (30, 370, 17),   # symbols straddle low_pc and high_pc
    ])
    def test_fixed_layouts(self, layout):
        symbols = SymbolTable([
            Symbol(0, "below", 40), Symbol(40, "tiny", 41),
            Symbol(41, "mid", 200), Symbol(200, "across", 390),
            Symbol(390, "above", 460),
        ])
        got = build_spans(*layout, symbols).entries
        assert exact(got) == exact(historical_spans(*layout, symbols))
        assert got  # the layout actually produces segments

    def test_empty_table(self):
        empty = SymbolTable([])
        assert build_spans(0, 400, 100, empty).entries == []
        assert historical_spans(0, 400, 100, empty) == []


# -- propagation plans -------------------------------------------------------


def numbered_chain():
    return number_graph(
        graph_from_edges(("main", "work", 4), ("work", "leaf", 8))
    )


class TestPropPlan:
    def test_plan_memoized_until_graph_changes(self):
        numbered = numbered_chain()
        p1 = kprop.plan_for(numbered)
        assert kprop.plan_for(numbered) is p1
        from repro.core.callgraph import Arc

        numbered.graph.add_arc(Arc("main", "leaf", 1))
        p2 = kprop.plan_for(numbered)
        assert p2 is not p1
        assert p2.fingerprint == numbered.graph.num_arcs()

    def test_solve_skips_uncalled_representatives(self):
        numbered = number_graph(graph_from_edges(("main", "leaf", 0)))
        plan = kprop.plan_for(numbered)
        sol = kprop.solve(plan, {"main": 1.0, "leaf": 2.0})
        # leaf was never called: no time flows up to main
        main_idx = plan.order.index(plan.order[-1])
        assert sol.total_program_time == 3.0
        assert all(ct == 0.0 for ct in sol.child_time)
        assert main_idx >= 0


# -- accumulator integration -------------------------------------------------


@pytest.mark.parametrize("backend", IMPLS)
class TestAccumulatorBackend:
    """The accumulator on each host's folds (``python``: numpy hidden)."""

    @pytest.fixture(autouse=True)
    def _host(self, backend, monkeypatch):
        if backend == "python":
            monkeypatch.setattr(kernels, "HAVE_NUMPY", False)

    def test_backend_name_surfaces(self, backend, tmp_path):
        """The merge statistics name the folds the merge ran on."""
        path = tmp_path / "gmon.out"
        path.write_bytes(make_wire_profile())
        stats: dict = {}
        tree_reduce([path], stats_out=stats)
        assert stats["kernel_backend"] == backend

    def test_accumulator_pickles(self, backend):
        acc = ProfileAccumulator(timed=True)
        acc.add_raw(
            __import__("repro.gmon", fromlist=["parse_gmon_raw"]).parse_gmon_raw(
                make_wire_profile()
            )
        )
        assert type(acc._buckets) is BUCKETS[backend]
        clone = pickle.loads(pickle.dumps(acc))
        assert type(clone._buckets) is BUCKETS[backend]
        assert clone.result() == acc.result()

    def test_timed_split_counts_inputs(self, backend):
        acc = ProfileAccumulator(timed=True)
        acc.add(make_wire_profile())
        acc.add(make_wire_profile())
        assert acc.timings["inputs"] == 2
        assert acc.timings["bytes"] == 2 * len(make_wire_profile())
        assert acc.timings["parse_seconds"] >= 0.0
        assert acc.timings["fold_seconds"] >= 0.0


def make_wire_profile() -> bytes:
    from repro.core import Histogram, ProfileData, RawArc
    from repro.gmon import dumps_gmon

    hist = Histogram(0, 400, [1, 0, 2, 0], 100)
    return dumps_gmon(
        ProfileData(hist, [RawArc(8, 100, 3)], runs=1, comment="t")
    )

"""Content-addressed memoization of expensive pipeline intermediates.

The §6 loop and the fleet workflows re-analyze the same executable over
and over: ``compare`` runs two analyses, ``regress`` gates every CI
run, ``repro-gprof --lint`` analyzes once for the linter and once for
the listing.  Most of that work is identical from run to run, so the
pipeline memoizes its expensive intermediates — the symbolized
:class:`~repro.core.arcs.ArcSet`, the per-routine self times, the
cycle-numbered graph, the solved :class:`~repro.core.propagate.Propagation`,
and the assembled :class:`~repro.core.analysis.Profile` — keyed by
blake2b digests of each stage's *inputs*
(:func:`repro.pipeline.runner.compute_keys` folds the options in).

Keys are pure functions of content: two different
:class:`~repro.core.symbols.SymbolTable` objects with equal symbols
produce equal digests, so a cache shared across loads of the same
image still hits.

Cached values are **shared, treat-as-immutable** objects: a warm
``analyze()`` returns the same ``Profile`` the cold run built.  Every
in-tree consumer treats profiles as read-only analysis results; if you
must mutate one, analyze without a cache.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.histogram import Histogram
    from repro.core.profiledata import ProfileData
    from repro.core.symbols import SymbolTable
    from repro.machine.executable import Executable

_DIGEST_SIZE = 16


def _new_hash() -> "hashlib.blake2b":
    return hashlib.blake2b(digest_size=_DIGEST_SIZE)


def _digest_strs(h, items) -> None:
    for s in items:
        b = s.encode("utf-8")
        h.update(struct.pack("<I", len(b)))
        h.update(b)


def digest_symbols(symbols: "SymbolTable") -> str:
    """Content digest of a symbol table, memoized on the instance.

    Symbol tables are immutable after construction, so the digest is
    computed once and stashed on the object; equal tables loaded twice
    still collide (the digest covers content, not identity).
    """
    cached = getattr(symbols, "_pipeline_digest", None)
    if cached is not None:
        return cached
    h = _new_hash()
    for sym in symbols:
        h.update(struct.pack("<qq", sym.address, sym.end))
        _digest_strs(h, (sym.name, sym.module))
    digest = h.hexdigest()
    try:
        symbols._pipeline_digest = digest
    except AttributeError:  # pragma: no cover - exotic symbol tables
        pass
    return digest


def digest_histogram(hist: "Histogram") -> str:
    """Content digest of a histogram (bounds, rate, every bucket)."""
    h = _new_hash()
    h.update(struct.pack("<qqqI", hist.low_pc, hist.high_pc,
                         len(hist.counts), hist.profrate))
    h.update(struct.pack(f"<{len(hist.counts)}q", *hist.counts))
    return h.hexdigest()


def digest_layout(hist: "Histogram") -> str:
    """Digest of a histogram's *layout* only (bounds and bucket count).

    The bucket/symbol overlap spans depend on the geometry, never the
    counts, so the ``spans`` cache kind keys on this: every same-layout
    profile of a fleet shares one cached spans object.
    """
    h = _new_hash()
    h.update(struct.pack("<qqq", hist.low_pc, hist.high_pc,
                         len(hist.counts)))
    return h.hexdigest()


def digest_raw_arcs(data: "ProfileData") -> str:
    """Content digest of the raw arc table (addresses and counts)."""
    h = _new_hash()
    h.update(struct.pack("<q", len(data.arcs)))
    for a in data.arcs:
        h.update(struct.pack("<qqq", a.from_pc, a.self_pc, a.count))
    return h.hexdigest()


def digest_warnings(data: "ProfileData") -> str:
    """Digest of the degradation warnings carried by the input data."""
    h = _new_hash()
    _digest_strs(h, data.warnings)
    return h.hexdigest()


def digest_executable(exe: "Executable") -> str:
    """Content digest of a whole executable image, memoized.

    Covers everything the dataflow battery reads: the text segment,
    the function records (name, bounds, profiled flag), the entry
    point, and the globals count.  Two identical images loaded twice
    collide, so a shared cache replays their flow analysis.
    """
    cached = getattr(exe, "_pipeline_digest", None)
    if cached is not None:
        return cached
    h = _new_hash()
    _digest_strs(h, (exe.name,))
    h.update(struct.pack("<qqq", exe.entry_point, exe.num_globals,
                         len(exe.instructions)))
    for ins in exe.instructions:
        operand = ins.operand if ins.operand is not None else -1
        _digest_strs(h, (ins.op.value,))
        h.update(struct.pack("<q", operand))
    h.update(struct.pack("<q", len(exe.functions)))
    for fn in exe.functions:
        _digest_strs(h, (fn.name,))
        h.update(struct.pack("<qq?", fn.entry, fn.end, fn.profiled))
    digest = h.hexdigest()
    try:
        exe._pipeline_digest = digest
    except AttributeError:  # pragma: no cover - frozen/slots images
        pass
    return digest


def combine(*parts: str) -> str:
    """Fold several digests/tokens into one key."""
    h = _new_hash()
    _digest_strs(h, parts)
    return h.hexdigest()


class AnalysisCache:
    """A bounded, content-addressed memo of pipeline intermediates.

    Entries are keyed by ``(kind, key)`` where ``kind`` names the
    intermediate (``"arcs"``, ``"self_times"``, ``"numbered"``,
    ``"prop"``, ``"profile"``, ``"flow"``) and ``key`` is the blake2b
    digest of the
    stage inputs that produced it.  Eviction is LRU with a fixed entry
    bound so a long-lived session (a fleet cron job, a test driver)
    cannot grow without limit.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._store: OrderedDict[tuple[str, str], object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, key: str):
        """The cached record for ``(kind, key)``, or None; counts the probe."""
        record = self._store.get((kind, key))
        if record is None:
            self.misses += 1
            return None
        self._store.move_to_end((kind, key))
        self.hits += 1
        return record

    def put(self, kind: str, key: str, record) -> None:
        """Store a record, evicting the least-recently-used on overflow."""
        self._store[(kind, key)] = record
        self._store.move_to_end((kind, key))
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        """Probe statistics, JSON-ready."""
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
        }

"""One stage protocol and one trace for the compiler and the analysis.

The §4 post-processing is a fixed sequence of steps (symbolize,
apportion, build the graph, number, propagate, ...) and the Rel
optimizer's rewrites are another; both are lists of :class:`Stage`
objects over a shared, mutable state.  A stage declares the facts it
``requires`` from earlier stages and the facts it ``provides``, and
:func:`run_stages` checks those declarations with
:func:`check_order` before anything runs.  The analysis names
:class:`~repro.pipeline.stages.PipelineState` fields as its facts; the
compiler passes name properties of the tree (``folded``, ``pruned``).

Every run can carry a :class:`PipelineTrace`.  Each stage appends one
:class:`StageTrace` — wall time, integer counters describing the work
done (arcs symbolized, cycles found, sites inlined, ...), and whether
the stage was answered from the analysis cache instead of recomputed.

Three renderings exist:

* :meth:`PipelineTrace.render_text` — the ``repro-gprof --timings``
  table, a human-facing per-stage breakdown;
* :meth:`PipelineTrace.render_json` — a structured dump for tooling.
  It is deterministic *modulo the timing fields*: strip every
  ``seconds`` value (:meth:`PipelineTrace.stable_dict`) and two runs
  over the same inputs compare equal, which is exactly what the trace
  tests assert;
* :meth:`PipelineTrace.counters` — every stage's counters in one
  ``stage.counter`` dict, what a PGO round reports.

This module imports nothing from the rest of the package but
:mod:`repro.errors`, so the compiler (``repro.lang``) can use it
without loading the analysis pipeline.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import StageOrderError

FORMAT = "repro-pipeline-trace-1"


class Stage:
    """One named step of a stage list.

    Subclasses set ``name``/``requires``/``provides`` and implement
    :meth:`run`, which reads its inputs off the state, writes its
    outputs back, and describes the work done in ``counters`` (integer
    values only — they feed the deterministic JSON trace).
    """

    name: str = "?"
    #: Facts earlier stages must have provided.
    requires: tuple[str, ...] = ()
    #: Facts this stage establishes for later ones.
    provides: tuple[str, ...] = ()

    def run(self, state, counters: dict[str, int]) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Stage {self.name}>"


def check_order(stages) -> None:
    """Raise :class:`StageOrderError` if a stage runs before its inputs.

    Each stage's ``requires`` must be covered by the ``provides`` of
    the stages before it; the error names the first stage that is not,
    and the facts it lacks.
    """
    provided: set[str] = set()
    for stage in stages:
        missing = [req for req in stage.requires if req not in provided]
        if missing:
            raise StageOrderError(
                f"stage {stage.name!r} requires {missing} but the stages "
                f"before it only provide {sorted(provided)}"
            )
        provided.update(stage.provides)


def run_stage(stage: Stage, state, trace: PipelineTrace | None = None):
    """Run one stage, timed into ``trace`` when given; return its counters."""
    counters: dict[str, int] = defaultdict(int)
    start = time.perf_counter()
    stage.run(state, counters)
    seconds = time.perf_counter() - start
    counters = dict(counters)
    if trace is not None:
        trace.add(StageTrace(stage.name, seconds, counters))
    return counters


def run_stages(stages, state, trace: PipelineTrace | None = None) -> None:
    """Check ``stages``' order, then run each one over ``state``."""
    check_order(stages)
    for stage in stages:
        run_stage(stage, state, trace)


@dataclass
class StageTrace:
    """One stage's footprint in a run.

    Attributes:
        name: the stage's registered name (``symbolize``, ``inline``, ...).
        seconds: wall-clock time spent inside the stage; 0.0 when the
            stage was served from the cache.
        counters: integer facts about the work done, keyed by a stable
            counter name.  Cached stages replay the counters recorded
            when the value was first computed.
        cached: True when the stage's output came from the analysis
            cache rather than being recomputed.
    """

    name: str
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    cached: bool = False

    def to_dict(self) -> dict:
        """JSON-serializable form with deterministically-ordered counters."""
        return {
            "name": self.name,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }


@dataclass
class PipelineTrace:
    """The complete instrumentation record of one stage-list run."""

    stages: list[StageTrace] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, stage: StageTrace) -> None:
        """Append one stage record (called by the runners)."""
        self.stages.append(stage)

    def stage_names(self) -> list[str]:
        """Stage names in execution order."""
        return [s.name for s in self.stages]

    def counters(self) -> dict[str, int]:
        """Every stage's counters as ``stage.counter`` keys, in run order."""
        return {
            f"{s.name}.{key}": value
            for s in self.stages
            for key, value in s.counters.items()
        }

    @property
    def total_seconds(self) -> float:
        """Wall time summed over all (non-cached) stages."""
        return sum(s.seconds for s in self.stages)

    def to_dict(self) -> dict:
        """JSON-serializable trace, timing fields included."""
        return {
            "format": FORMAT,
            "total_seconds": round(self.total_seconds, 6),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "stages": [s.to_dict() for s in self.stages],
        }

    def stable_dict(self) -> dict:
        """:meth:`to_dict` with every timing field stripped.

        Two runs over the same inputs produce equal stable dicts — the
        determinism contract the trace tests gate.
        """
        d = self.to_dict()
        d.pop("total_seconds")
        for s in d["stages"]:
            s.pop("seconds")
        return d

    def render_json(self) -> str:
        """Deterministic JSON (sorted keys; timing fields still present)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        """The ``--timings`` table: one line per stage, widest first column."""
        lines = [
            f"pipeline timings ({self.total_seconds * 1000:.1f} ms total, "
            f"cache {self.cache_hits} hit(s) / {self.cache_misses} miss(es)):"
        ]
        width = max((len(s.name) for s in self.stages), default=0)
        for s in self.stages:
            counters = " ".join(
                f"{k}={s.counters[k]}" for k in sorted(s.counters)
            )
            mark = "  [cached]" if s.cached else ""
            lines.append(
                f"  {s.name:<{width}}  {s.seconds * 1000:8.2f} ms"
                f"{mark}  {counters}".rstrip()
            )
        return "\n".join(lines) + "\n"

"""The pipeline trace: the profiler profiling itself.

Every run of the analysis pipeline can carry a :class:`PipelineTrace`.
Each stage appends one :class:`StageTrace` — wall time, integer
counters describing the work done (arcs symbolized, cycles found,
entries assembled, ...), and whether the stage was answered from the
analysis cache instead of recomputed.

Two renderings exist:

* :meth:`PipelineTrace.render_text` — the ``repro-gprof --timings``
  table, a human-facing per-stage breakdown;
* :meth:`PipelineTrace.render_json` — a structured dump for tooling.
  It is deterministic *modulo the timing fields*: strip every
  ``seconds`` value (:meth:`PipelineTrace.stable_dict`) and two runs
  over the same inputs compare equal, which is exactly what the trace
  tests assert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

FORMAT = "repro-pipeline-trace-1"


@dataclass
class StageTrace:
    """One stage's footprint in a pipeline run.

    Attributes:
        name: the stage's registered name (``symbolize``, ``number``, ...).
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
    """The complete instrumentation record of one pipeline run."""

    stages: list[StageTrace] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, stage: StageTrace) -> None:
        """Append one stage record (called by the runner)."""
        self.stages.append(stage)

    def stage(self, name: str) -> StageTrace | None:
        """The record for stage ``name``, or None if it never ran."""
        for s in self.stages:
            if s.name == name:
                return s
        return None

    def stage_names(self) -> list[str]:
        """Stage names in execution order."""
        return [s.name for s in self.stages]

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

        Two runs of the pipeline over the same inputs produce equal
        stable dicts — the determinism contract the trace tests gate.
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

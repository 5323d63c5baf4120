"""Timing, spans, statistics and the metric table, shared by every workload.

A workload's run is a sequence of *rounds*: set-up repetitions, timed
operations (ops), and output checks.  Inside a round, every call into a
layer of ``repro`` is wrapped in :meth:`Round.span`, which always
measures the call (end-to-end metrics need a few of these durations)
and, when the round is traced, also keeps a span record in memory:
name, start, end, parent span and round id.  Nothing inside ``src/`` is
patched; spans sit around public calls only.

A layer's self time is its span's duration minus the part its child
spans cover.  The per-layer metrics are medians over rounds of each
layer's summed self time (see :func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import platform
import statistics
import sys
from statistics import median
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Where runs keep their scratch files and spans; listed in .gitignore.
WORK_DIR = ROOT / ".e2e"

#: Span names with one of these prefixes are layer calls; other spans
#: (a round, a canned program) group them.
LAYERS = ("lang", "machine", "gmon", "fleet", "pipeline", "report", "serve")

class BootstrapError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def bootstrap() -> None:
    """Put ``src/`` first on the import path and insist ``repro`` is there.

    The benchmark measures the checkout it sits in, never an installed
    copy, so a directory without ``src/repro`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BootstrapError(f"no src/repro package under {ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BootstrapError(f"repro imported from {repro.__file__}, not {src}")


def python_env() -> dict:
    """The environment for child interpreters that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def host_fingerprint() -> dict:
    from repro.core import kernels

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.default_backend_name(),
    }


# -- the metric table ---------------------------------------------------------


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics tools gate on."""
    return json.loads(BENCHMARK_JSON.read_text())


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # worst tolerated relative change; absolute for error_rate
    workloads: tuple[str, ...] | None = None  # None: every workload


#: End-to-end metrics ``BENCHMARK.json`` does not list: most exist only
#: where their mechanism runs, while its metrics exist on every workload
#: and are never 0.  ``query_ms_p25`` exists everywhere, but on ingest
#: its fast and slow modes mix differently from one quarter-hour to the
#: next, so no one bound holds it.  Runs print these metrics, ``--out``
#: stores them, and ``compare`` checks them against these bounds.
SCOPED = (
    Metric("query_ms_p25", "ms", "lower", 0.25),
    Metric("vm_minstr_per_s", "Minstr/s", "higher", 0.15, ("canned", "wide")),
    Metric("profiling_overhead_x", "x", "lower", 0.10, ("canned",)),
    Metric("merge_files_per_s", "files/s", "higher", 0.25, ("fleet",)),
    Metric("server_cpu_ms_per_upload", "ms", "lower", 0.25, ("ingest",)),
    Metric("error_rate", "ratio", "lower", 0.0),
)


def workloads() -> list[str]:
    return [w["name"] for w in spec()["workloads"]]


def metrics() -> dict[str, Metric]:
    """Every end-to-end metric: ``BENCHMARK.json``'s, then the scoped ones."""
    out = {m["name"]: Metric(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec()["end_to_end"]}
    out.update((m.name, m) for m in SCOPED)
    return out


def per_layer() -> list[tuple[str, str]]:
    """``(name, unit)`` of the metrics a ``--trace 1`` run reports."""
    return [(m["name"], m["unit"]) for m in spec()["per_layer"]]


def final_line_metrics(trace: bool) -> list[str]:
    """Metric names the final JSON line carries, per ``BENCHMARK.json``."""
    return [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]


# -- statistics ---------------------------------------------------------------


def fast_quartile(values, better: str = "lower") -> float:
    """p25 of times (lower is better) or p75 of rates (higher is better)."""
    q1, _, q3 = quartiles(values)
    return q1 if better == "lower" else q3


def quartiles(values) -> tuple[float, float, float]:
    """Python's default quartiles; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples)``.  With ten or fewer samples
    no percentile qualifies and the maximum is returned as percentile
    100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1], n
    k = n - 10
    return 100.0 * k / n, ordered[k - 1], n


# -- rounds and spans ---------------------------------------------------------


class Round:
    """One set-up repetition, op, or check, and the layer calls in it."""

    def __init__(self, rec: "Recorder", kind: str, index: int,
                 traced: bool) -> None:
        self.rec = rec
        self.kind = kind
        self.index = index
        self.id = f"{kind}-{index}"
        self.traced = traced
        self.layers: dict[str, float] = {}  # self seconds per layer
        self.durations: dict[str, float] = {}  # inclusive seconds per name
        self.counts: dict[str, int] = {}
        self.stages: dict[str, float] = {}
        self.ok = True
        self.start = self.end = 0.0
        self.due: float | None = None  # open loop: when the op was due
        self._stack: list[list] = []  # [span id, child seconds]

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def latency(self) -> float:
        """Seconds from when the round was due (or started) to its end."""
        return self.end - (self.start if self.due is None else self.due)

    @contextmanager
    def span(self, name: str, **attrs):
        """Time one call; keep a span record when the round is traced."""
        sid = next(self.rec.ids)
        parent = self._stack[-1][0] if self._stack else self.root
        self._stack.append([sid, 0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            _, child = self._stack.pop()
            took = t1 - t0
            if self._stack:
                self._stack[-1][1] += took
            self.durations[name] = self.durations.get(name, 0.0) + took
            if name.split(".")[0] in LAYERS:
                self.layers[name] = self.layers.get(name, 0.0) + took - child
            if self.traced:
                self.rec.keep(sid, parent, self.id, name, t0, t1, attrs)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_stages(self, trace) -> None:
        """Fold a ``PipelineTrace``'s per-stage seconds into this round."""
        if trace is not None:
            for s in trace.stages:
                self.stages[s.name] = self.stages.get(s.name, 0.0) + s.seconds

    def __enter__(self) -> "Round":
        self.root = next(self.rec.ids)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.traced:
            self.rec.keep(self.root, None, self.id, self.kind, self.start,
                          self.end, {})
        self.rec.rounds.append(self)


class Recorder:
    """All rounds of one run, plus the span records of the traced ones."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.ids = itertools.count(1)
        self.rounds: list[Round] = []
        self.spans: list[dict] = []

    def round(self, kind: str, index: int, traced: bool = False) -> Round:
        return Round(self, kind, index, traced)

    def keep(self, sid, parent, round_id, name, t0, t1, attrs) -> None:
        rec = {
            "id": sid, "parent": parent, "op": round_id, "name": name,
            "start_ms": (t0 - self.t0) * 1e3, "end_ms": (t1 - self.t0) * 1e3,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)

    def of(self, kind: str, traced: bool | None = None) -> list[Round]:
        return [r for r in self.rounds if r.kind == kind
                and (traced is None or r.traced == traced)]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time in ms of every span: its duration minus its children's."""
    child: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = (child.get(s["parent"], 0.0)
                                  + s["end_ms"] - s["start_ms"])
    return {s["id"]: s["end_ms"] - s["start_ms"] - child.get(s["id"], 0.0)
            for s in spans}


def coverage_pct(spans: list[dict], kind: str) -> list[float]:
    """Per round of ``kind``: layer self time as a share of its wall time."""
    selfs = self_times(spans)
    roots = {s["op"]: s for s in spans
             if s["parent"] is None and s["name"] == kind}
    covered: dict[str, float] = {}
    for s in spans:
        if s["name"].split(".")[0] in LAYERS:
            covered[s["op"]] = covered.get(s["op"], 0.0) + selfs[s["id"]]
    return [100.0 * covered.get(op, 0.0) / (r["end_ms"] - r["start_ms"])
            for op, r in roots.items() if r["end_ms"] > r["start_ms"]]


def layer_metrics(rec: Recorder, op_kind: str) -> dict[str, float]:
    """Per-layer metrics from the traced rounds of one run.

    Each layer is measured where the workload calls it: the median
    over traced ops when its ops call the layer, else the median over
    the traced set-up or check rounds that do.
    """
    traced = [r for r in rec.rounds if r.traced]
    groups = [[r for r in traced if r.kind == op_kind]]
    groups += [[r for r in traced if r.kind == k] for k in ("setup", "check")]
    out: dict[str, float] = {}

    def pick(get, middle=median):
        for rounds in groups:
            values = [v for v in map(get, rounds) if v is not None]
            if values:
                return middle(values)
        return 0

    for name, unit in per_layer():
        if name.startswith("harness."):
            continue
        base = name[: -len("_ms")] if unit == "ms" else name
        if unit == "ms" and base.startswith("pipeline.") and base != "pipeline.analyze":
            stage = base[len("pipeline."):].replace("_", "-")
            out[name] = pick(lambda r: r.stages[stage] * 1e3
                             if stage in r.stages else None)
        elif unit == "ms":
            out[name] = pick(lambda r: r.layers[base] * 1e3
                             if base in r.layers else None)
        else:
            out[name] = pick(lambda r: r.counts.get(base), statistics.median_low)
    return out


def write_spans(path: Path, header: dict, rec: Recorder) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(header, format="repro-e2e-spans-1", spans=rec.spans)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

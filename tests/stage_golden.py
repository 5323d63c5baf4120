"""Frozen stage counters: what every analysis stage and compiler pass did.

``tests/golden/stage_counters.json`` holds two records:

* ``analysis`` — for every canned program (``PROGRAMS``) profiled at
  :data:`CYCLES_PER_TICK` cycles per tick and analyzed with its crawled
  static arcs, :meth:`PipelineTrace.stable_dict` of three runs: with no
  cache, then cold and warm on one fresh :class:`AnalysisCache`;
* ``pgo`` — for every Rel program (``REL_PROGRAMS``) at each level of
  :data:`PGO_LEVELS`, ``run_pgo(rounds=2)``'s per-round ``counters``,
  ``hints`` and ``saved``, plus a digest of the final assembly text.

Stage names, counter names, counter values, their order in a PGO
round and the cached markers are the observable contract of the stage
runner; ``tests/test_stage_golden.py`` replays the file.

Regenerating is a conscious act::

    PYTHONPATH=src python -m tests.stage_golden --update

(only legitimate after a deliberate change to what a stage counts.)
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core import AnalysisOptions, analyze
from repro.lang.pgo import run_pgo
from repro.lang.programs import REL_PROGRAMS
from repro.machine import Monitor, MonitorConfig, assemble, make_cpu, static_call_graph
from repro.machine.programs import PROGRAMS
from repro.pipeline import AnalysisCache, PipelineTrace

GOLDEN_PATH = Path(__file__).parent / "golden" / "stage_counters.json"

#: A short tick: nearly every routine gets samples, so every stage counts.
CYCLES_PER_TICK = 7

#: Static levels under the PGO loop.
PGO_LEVELS = (0, 2)

#: The three analysis runs per program, in order.
RUNS = ("uncached", "cold", "warm")


def profile(name: str):
    """Run canned program ``name`` under the monitor; return (exe, data)."""
    exe = assemble(PROGRAMS[name](), name=name, profile=True)
    monitor = Monitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=CYCLES_PER_TICK)
    )
    make_cpu(exe, monitor).run()
    return exe, monitor.mcleanup(comment=name)


def analysis_traces(name: str) -> dict[str, dict]:
    """The stable trace of each of :data:`RUNS` for one program."""
    exe, data = profile(name)
    symbols = exe.symbol_table()
    options = AnalysisOptions(static_arcs=sorted(static_call_graph(exe)))
    cache = AnalysisCache()
    out = {}
    for run in RUNS:
        trace = PipelineTrace()
        analyze(
            data,
            symbols,
            options,
            trace=trace,
            cache=None if run == "uncached" else cache,
        )
        out[run] = trace.stable_dict()
    return out


def pgo_record(name: str, level: int) -> dict:
    """Per-round counters, hints and savings, and the final asm digest."""
    result = run_pgo(REL_PROGRAMS[name](), name=name, level=level, rounds=2)
    return {
        "rounds": [
            {
                "counters": [[k, v] for k, v in r.counters.items()],
                "hints": r.hints,
                "saved": r.saved,
            }
            for r in result.rounds
        ],
        "asm": hashlib.blake2b(
            str(result.asm).encode("utf-8"), digest_size=16
        ).hexdigest(),
    }


def compute_golden() -> dict:
    return {
        "format": "repro-stage-golden-1",
        "analysis": {name: analysis_traces(name) for name in sorted(PROGRAMS)},
        "pgo": {
            name: {f"O{level}": pgo_record(name, level) for level in PGO_LEVELS}
            for name in sorted(REL_PROGRAMS)
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    golden = compute_golden()
    if "--update" not in argv:
        frozen = json.loads(GOLDEN_PATH.read_text())
        ok = frozen == golden
        print("stage golden matches" if ok else "stage golden DIFFERS")
        return 0 if ok else 1
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

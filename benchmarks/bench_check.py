"""T-FLOW runner: dataflow-battery throughput and cache replay.

``repro-check --flow`` runs the whole per-routine dataflow stack — CFG
recovery, dominators, natural loops, interprocedural stack summaries,
interval interpretation, and the static frequency prediction — so its
cost scales with routine count, and the session cache exists so a
frontend that lints and then renders pays for one analysis.  This
benchmark measures both:

* ``cold`` — :func:`repro.check.flow.analyze_flow` from scratch, over
  the canned-program corpus and over synthetic call chains large
  enough that the interprocedural summary iteration matters;
* ``replay`` — the same image re-analyzed through
  :class:`~repro.pipeline.ProfileSession` against a cache that already
  holds its flow analysis: one content digest, one hit.  The replay
  deserializes a fresh ``Executable`` first so the digest is honestly
  recomputed.

Every corpus must render **byte-identical** flow reports and predicted
profiles across two fresh analyses *and* the cache replay (exit 2
otherwise — the CI identity gate for the predicted-profile artifact).
The headline number is cold ``routines_per_sec``.
"""

from __future__ import annotations

from repro.check.flow import analyze_flow, render_flow_report
from repro.machine import Executable, assemble
from repro.machine.programs import PROGRAMS
from repro.pipeline import AnalysisCache, ProfileSession

from benchmarks.timing import header, ratio, rounds, spread, summary

#: Synthetic corpus shape.  Each chain routine owns a counted loop and
#: one call site, so every analysis layer (loops, summaries, intervals,
#: activation propagation) does real work per routine.
FULL = {"chain_sizes": (100, 400), "repeats": 9}
QUICK = {"chain_sizes": (50,), "repeats": 3}


def synthetic_source(n: int) -> str:
    """A deterministic ``n``-routine call chain, leaves laid out first.

    Routine ``r0000`` is the leaf; ``r{i}`` calls ``r{i-1}`` once and
    then runs a three-iteration counted loop; ``main`` calls the chain
    head.  Leaf-first layout lets the summary iteration converge in its
    natural two passes instead of degenerating to one pass per link.
    """
    parts = []
    for i in range(n):
        call = f" CALL r{i - 1:04d}\n" if i else ""
        parts.append(
            f".func r{i:04d}\n{call} PUSH 3\n STORE 0\n"
            "top:\n WORK 5\n LOAD 0\n PUSH 1\n SUB\n STORE 0\n"
            " LOAD 0\n JNZ top\n RET\n.end\n"
        )
    parts.append(f".func main\n CALL r{n - 1:04d}\n HALT\n.end\n")
    return "".join(parts)


def artifacts(flow) -> tuple[str, str]:
    """The two byte-determinism-gated renderings of one analysis."""
    return render_flow_report(flow), flow.prediction.render_json()


def _bench_corpus(label: str, exes: list, repeats: int) -> tuple[dict, bool]:
    n_routines = sum(len(exe.functions) for exe in exes)

    # Cache replay: prime a shared cache, then re-analyze through a
    # freshly-deserialized image so the content digest is recomputed.
    cache = AnalysisCache()
    for exe in exes:
        ProfileSession.from_executable(exe, cache=cache).flow()
    replays = [Executable.from_dict(exe.to_dict()) for exe in exes]

    seconds, results = rounds(
        {
            "cold": lambda: [analyze_flow(exe) for exe in exes],
            "replay": lambda: [
                ProfileSession.from_executable(exe, cache=cache).flow()
                for exe in replays
            ],
        },
        repeats,
    )
    reference = [artifacts(f) for f in results["cold"]]
    # Determinism across runs: a second fresh analysis, and the replay,
    # must render the same bytes.
    identical = all(
        artifacts(analyze_flow(exe)) == ref
        for exe, ref in zip(exes, reference)
    ) and all(
        artifacts(f) == ref for f, ref in zip(results["replay"], reference)
    )

    cold_ms = summary(s * 1000 for s in seconds["cold"])
    row = {
        "corpus": label,
        "images": len(exes),
        "routines": n_routines,
        "cold_ms": cold_ms,
        "replay_ms": summary(s * 1000 for s in seconds["replay"]),
        "routines_per_sec": round(n_routines / cold_ms["median"] * 1000, 1),
        "speedup_replay_vs_cold": ratio(seconds, "cold", "replay"),
        "byte_identical": identical,
    }
    print(
        f"  {label:>10}: {n_routines:>4} routines"
        f"  cold {cold_ms['median']:>9.2f} ms"
        f"  ({row['routines_per_sec']:>8} r/s)"
        f"  replay {row['replay_ms']['median']:>8.3f} ms"
        f"  ({spread(row['speedup_replay_vs_cold'])})"
        f"  identical={identical}"
    )
    return row, identical


def run_check(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    rows = []
    identical_everywhere = True

    canned = [
        assemble(builder(), name=name, profile=True)
        for name, builder in sorted(PROGRAMS.items())
    ]
    row, ok = _bench_corpus("canned", canned, cfg["repeats"])
    rows.append(row)
    identical_everywhere &= ok

    for n in cfg["chain_sizes"]:
        exe = assemble(synthetic_source(n), name=f"chain{n}", profile=True)
        row, ok = _bench_corpus(f"chain-{n}", [exe], cfg["repeats"])
        rows.append(row)
        identical_everywhere &= ok

    return {
        **header("T-FLOW dataflow-battery throughput", quick, cfg["repeats"]),
        "corpus": {
            "canned_programs": len(canned),
            "chain_sizes": list(cfg["chain_sizes"]),
        },
        "rows": rows,
    }, identical_everywhere

"""T-PGO — the closed §6 loop: measured-profile-guided optimization.

The paper leaves the loop open: gprof finds the bottleneck, a
programmer rewrites, gprof measures again.  ``repro.lang.run_pgo``
closes it mechanically — branch ordering, benefit-model inlining, and
hot/cold layout all driven by the gmon data of the previous run.  This
suite measures that loop on every canned Rel program and gates on the
three contracts the optimizer lives by:

* **behaviour preserved** — the PGO'd binary prints the same output
  and leaves the same final globals as the -O0 baseline, every round;
* **cycles actually saved** — at least three canned programs must run
  in strictly fewer (unprofiled, honest) cycles after PGO;
* **byte determinism** — a fixed (source, profile) pair yields
  byte-identical final assembly on independent loop runs.

``python -m benchmarks.emit_bench --suite pgo`` writes BENCH_pgo.json
and exits 2 if any contract fails.

This file also absorbs the retired A-INLINE ablation
(``bench_inline_ablation.py``): static ``-O2`` inlining is now the
*baseline column* of the PGO table, and the ablation's §6 trade-off
assertions (cycles saved vs profile granularity lost) live on as
pytest entries below, sharing one harness with the feedback loop.
"""

from __future__ import annotations

from repro.core import analyze
from repro.lang import compile_source, run_pgo
from repro.lang.programs import REL_PROGRAMS
from repro.machine import Monitor, MonitorConfig, make_cpu

from benchmarks.conftest import report
from benchmarks.timing import header

#: The retired A-INLINE workload: a formatting-flavoured helper the
#: benefit model should inline, echoing the paper's "format expanded
#: into output" example.  Kept as a named workload so the static
#: baseline column stays measurable on the shape it was designed for.
INLINE_SRC = """
func scale(v) { return v * 10 + 7; }
func emit(v) {
    burn 6;
    print scale(v);
    return v;
}
func main() {
    i = 0;
    while (i < 80) {
        emit(i);
        i = i + 1;
    }
}
"""

CYCLES_PER_TICK = 100

#: Full mode runs every canned Rel program plus the ablation workload;
#: quick mode keeps the four programs PGO demonstrably improves so the
#: ">= 3 strictly faster" gate is still meaningful at smoke scale.
QUICK_PROGRAMS = ("abstraction", "gcd_chain", "sieve", "classify")


def _workloads(quick: bool) -> dict[str, str]:
    if quick:
        return {name: REL_PROGRAMS[name]() for name in QUICK_PROGRAMS}
    sources = {name: builder() for name, builder in REL_PROGRAMS.items()}
    sources["inline_ablation"] = INLINE_SRC
    return sources


def _plain_cycles(source: str, name: str, level: int):
    """Cycles and output of an unprofiled build at a static level."""
    exe = compile_source(source, name=name, profile=False,
                         optimize_level=level)
    cpu = make_cpu(exe)
    cpu.run()
    return cpu.cycles, list(cpu.output)


def run_pgo_suite(quick: bool) -> tuple[dict, bool]:
    """Measure the PGO loop on every workload; the emit_bench core.

    Returns ``(report_dict, ok)`` where ``ok`` demands identical
    behaviour everywhere, byte-identical assembly across independent
    loop runs, and strictly fewer cycles on at least three programs.
    """
    rounds = 1 if quick else 2
    rows = []
    identical_everywhere = True
    deterministic_everywhere = True
    improved = 0
    for name, source in sorted(_workloads(quick).items()):
        cycles_o0, out_o0 = _plain_cycles(source, name, level=0)
        cycles_o2, out_o2 = _plain_cycles(source, name, level=2)
        # two fully independent loop runs: the byte-determinism probe.
        result = run_pgo(source, name=name, rounds=rounds,
                         cycles_per_tick=CYCLES_PER_TICK)
        rerun = run_pgo(source, name=name, rounds=rounds,
                        cycles_per_tick=CYCLES_PER_TICK)
        deterministic = str(result.asm) == str(rerun.asm)
        identical = (
            result.identical
            and out_o2 == out_o0
            and result.output == out_o0
        )
        row = {
            "program": name,
            "rounds": rounds,
            "cycles_o0": cycles_o0,
            "cycles_o2_static": cycles_o2,
            "cycles_pgo": result.cycles_final,
            "saved_vs_o0": result.saved,
            "saved_pct": round(100.0 * result.saved / cycles_o0, 2)
            if cycles_o0 else 0.0,
            "bottleneck": result.bottleneck,
            "transforms": {
                key: value
                for r in result.rounds
                for key, value in r.counters.items()
                if value
            },
            "warnings": [w for r in result.rounds for w in r.warnings],
            "identical": identical,
            "deterministic": deterministic,
            "improved": result.cycles_final < cycles_o0,
        }
        rows.append(row)
        identical_everywhere &= identical
        deterministic_everywhere &= deterministic
        improved += row["improved"]
        print(
            f"  {name:>15}: O0 {cycles_o0:>6}  O2 {cycles_o2:>6}"
            f"  PGO {result.cycles_final:>6} ({result.saved:+d},"
            f" {row['saved_pct']}%)"
            f"  identical={identical} deterministic={deterministic}"
        )
    ok = identical_everywhere and deterministic_everywhere and improved >= 3
    print(
        f"  gate: identical={identical_everywhere}"
        f" deterministic={deterministic_everywhere}"
        f" improved={improved}/{len(rows)} (need >= 3) -> "
        + ("PASS" if ok else "FAIL")
    )
    return {
        # cycle counts repeat exactly: one measurement of each suffices
        **header("T-PGO profile-guided optimization loop", quick, 1),
        "cycles_per_tick": CYCLES_PER_TICK,
        "rounds": rounds,
        "improved_programs": improved,
        "rows": rows,
    }, ok


# --------------------------------------------------------------------------
# pytest entries: the PGO gate at smoke scale, plus the absorbed
# A-INLINE ablation (static inlining as the baseline column).
# --------------------------------------------------------------------------


def run_level(level: int):
    """One profiled run of the ablation workload at a static level."""
    exe = compile_source(INLINE_SRC, name=f"O{level}", profile=True,
                         optimize_level=level)
    monitor = Monitor(MonitorConfig(exe.low_pc, exe.high_pc,
                                    cycles_per_tick=10))
    cpu = make_cpu(exe, monitor)
    cpu.run()
    profile = analyze(monitor.mcleanup(), exe.symbol_table())
    return cpu, profile


def test_quick_suite_gate():
    """The emit_bench core's own gate, at smoke scale."""
    report_dict, ok = run_pgo_suite(quick=True)
    assert ok
    assert report_dict["improved_programs"] >= 3
    assert all(row["identical"] for row in report_dict["rows"])
    assert all(row["deterministic"] for row in report_dict["rows"])


def test_pgo_inlines_the_ablation_helper(benchmark):
    """The feedback loop reaches the ablation's conclusion on its own:
    the measured call counts make inlining ``scale`` worth its size."""
    result = benchmark(
        lambda: run_pgo(INLINE_SRC, name="ablation", rounds=1,
                        cycles_per_tick=10)
    )
    assert result.identical
    assert result.saved > 0
    expanded = sum(
        r.counters.get("inline.sites_expanded", 0) for r in result.rounds
    )
    assert expanded >= 1
    assert all(fn.name != "scale" for fn in result.program.functions)


def test_inline_saves_cycles_but_loses_routines(benchmark):
    rows = []
    results = {}
    for level in (0, 1, 2):
        cpu, profile = run_level(level)
        visible = [
            e.name for e in profile.graph_entries if not e.is_cycle
        ]
        results[level] = (cpu.cycles, visible, profile)
        rows.append(
            (f"-O{level}", cpu.cycles, len(visible),
             "yes" if "scale" in visible else "no")
        )
    report(
        "Inline ablation: speed gained, profile insight lost",
        rows,
        header=("level", "cycles", "routines", "scale visible"),
    )
    benchmark(lambda: run_level(2))
    cycles0, visible0, prof0 = results[0]
    cycles2, visible2, prof2 = results[2]
    # the benefit: each of the 80 calls' linkage overhead is gone
    assert cycles2 < cycles0
    # the §6 drawback: the scale abstraction vanished from the profile
    assert "scale" in visible0
    assert "scale" not in visible2
    # and its cost became indistinguishable inside emit's self *share*
    share0 = prof0.entry("emit").self_seconds / prof0.total_seconds
    share2 = prof2.entry("emit").self_seconds / prof2.total_seconds
    assert share2 > share0 + 0.1


def test_output_identical_across_levels(benchmark):
    outputs = {}
    for level in (0, 1, 2):
        cpu, _ = run_level(level)
        outputs[level] = cpu.output
    assert outputs[0] == outputs[1] == outputs[2]
    benchmark(lambda: run_level(0))


def test_per_call_saving_matches_linkage_cost(benchmark):
    """The saving is exactly the call/return/prologue linkage of the
    inlined routine, per call — nothing more, nothing less."""
    cpu0, _ = run_level(0)
    cpu2, _ = run_level(2)
    saved = cpu0.cycles - cpu2.cycles
    calls = 80
    per_call = saved / calls
    report(
        "Per-call saving from inlining 'scale'",
        [("total cycles saved", saved), ("per call", f"{per_call:.1f}")],
    )
    benchmark(lambda: run_level(2))
    # CALL(4) + RET(3) + MCOUNT(~6) + argument STORE/LOAD shuffling:
    # the saving sits in the 8-20 cycle band per call.
    assert 8 <= per_call <= 20

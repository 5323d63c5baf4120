"""The closed §6 loop: measure → optimize → re-measure, hands-free.

The paper frames gprof as half of an iterative cycle — "profiling the
program, eliminating one bottleneck, then finding some other part of
the program that begins to dominate" — with a programmer in the
middle.  :func:`run_pgo` closes that loop mechanically:

1. compile the current tree with monitoring prologues *and* a source
   map, run it, collect gmon data;
2. translate the data into :class:`~repro.lang.feedback.ProfileFeedback`
   (arc counts, §4 masses, branch verdicts);
3. apply the profile-guided passes (branch ordering, benefit-model
   inlining, hot/cold layout);
4. verify the rewritten program is observably identical (same output,
   same final globals) and measure its honest, *unprofiled* cycle
   count;
5. repeat — later rounds profile the already-optimized tree, so a
   bottleneck surfaced by round one's rewrite is found by round two,
   exactly the "some other part begins to dominate" dynamic.

Every step is deterministic: a fixed (source, profile) pair produces
byte-identical assembly on every run, which the pgo benchmark gate
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.lang import ast
from repro.lang.codegen import generate, generate_mapped
from repro.lang.feedback import ProfileFeedback
from repro.lang.parser import parse
from repro.lang.optimize import optimize
from repro.lang.passes import CompileState, build_pipeline
from repro.machine import Monitor, MonitorConfig, assemble, make_cpu
from repro.machine.assembler import Asm
from repro.trace import PipelineTrace, run_stages


@dataclass
class PGORound:
    """One trip around the loop."""

    index: int
    samples: int
    calls: int
    cycles_before: int
    cycles_after: int
    counters: dict[str, int] = field(default_factory=dict)
    hints: int = 0
    hot: list[tuple[str, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    identical: bool = True

    @property
    def saved(self) -> int:
        """Cycles shaved off by this round's rewrite."""
        return self.cycles_before - self.cycles_after


@dataclass
class PGOResult:
    """The finished loop: every round plus the final artifacts."""

    name: str
    level: int
    rounds: list[PGORound]
    program: ast.Program
    asm: Asm
    cycles_baseline: int
    cycles_final: int
    output: list[int]

    @property
    def saved(self) -> int:
        """Total cycles saved versus the pre-PGO baseline."""
        return self.cycles_baseline - self.cycles_final

    @property
    def identical(self) -> bool:
        """Whether every round preserved observable behaviour."""
        return all(r.identical for r in self.rounds)

    @property
    def bottleneck(self) -> str | None:
        """The hottest routine the first measurement found (§6's
        "which routine dominates")."""
        if self.rounds and self.rounds[0].hot:
            return self.rounds[0].hot[0][0]
        return None


def run_pgo(
    source: str,
    *,
    name: str = "a.out",
    level: int = 0,
    rounds: int = 1,
    cycles_per_tick: int = 100,
    engine: str = "fast",
) -> PGOResult:
    """Run the full measure→optimize→re-measure loop on Rel source.

    Arguments:
        source: the program text.
        level: static optimization level applied before the first
            measurement (the loop's baseline).
        rounds: how many measure/rewrite trips to make.
        cycles_per_tick: the monitor's sampling period.
        engine: VM interpreter engine for every run.
    """
    if rounds < 1:
        raise ReproError("run_pgo needs at least one round")
    program = optimize(parse(source), level=level)
    baseline = _run_plain(program, name, engine)
    reference = (list(baseline.output), list(baseline.globals))
    cycles_before = baseline.cycles

    done: list[PGORound] = []
    for index in range(1, rounds + 1):
        # 1. the measured run: profiled build of the current tree.
        asm, smap = generate_mapped(program)
        exe = assemble(asm, name=name, profile=True)
        monitor = Monitor(
            MonitorConfig(
                exe.low_pc, exe.high_pc, cycles_per_tick=cycles_per_tick
            )
        )
        cpu = make_cpu(exe, monitor, engine=engine)
        cpu.run()
        data = monitor.mcleanup(comment=name)
        # 2. data → AST-level feedback (against this exact tree).
        fb = ProfileFeedback.from_measurement(
            program, exe, smap, data, cycles_per_tick
        )
        # 3. the profile-guided rewrite.
        state, trace = CompileState(program, fb), PipelineTrace()
        run_stages(build_pipeline(0, fb), state, trace)
        optimized = state.program
        # 4. verification + the honest (unprofiled) measurement.
        after = _run_plain(optimized, name, engine)
        identical = (
            list(after.output) == reference[0]
            and list(after.globals) == reference[1]
        )
        done.append(
            PGORound(
                index=index,
                samples=data.total_ticks,
                calls=data.total_calls,
                cycles_before=cycles_before,
                cycles_after=after.cycles,
                counters=trace.counters(),
                hints=len(fb.branch_hints),
                hot=_hot_routines(fb),
                warnings=list(fb.warnings),
                identical=identical,
            )
        )
        program = optimized
        cycles_before = after.cycles

    return PGOResult(
        name=name,
        level=level,
        rounds=done,
        program=program,
        asm=generate(program),
        cycles_baseline=baseline.cycles,
        cycles_final=cycles_before,
        output=reference[0],
    )


def _run_plain(program: ast.Program, name: str, engine: str):
    """An unprofiled run of ``program`` (the honest cycle count)."""
    exe = assemble(generate(program), name=name, profile=False)
    cpu = make_cpu(exe, engine=engine)
    cpu.run()
    return cpu


def _hot_routines(fb: ProfileFeedback, top: int = 3) -> list[tuple[str, float]]:
    """The measured flat-profile leaders, hottest first."""
    if fb.profile is None:
        return []
    return [
        (entry.name, entry.self_seconds)
        for entry in fb.profile.flat_entries[:top]
    ]

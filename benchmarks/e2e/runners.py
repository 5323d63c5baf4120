"""The closed-loop workloads: ``canned``, ``wide`` and ``fleet``.

One caller issues the next op as soon as the previous one returns.  The
first op is a warm-up and is discarded; ops then repeat until the run's
``--seconds`` have passed.  In a traced run every other op is traced, so
traced and untraced ops see the same host conditions and their medians
give the tracing overhead.

Each layer is called through its public function, inside a span:
``parse``/``optimize``/``codegen.generate``/``assemble`` for the
compiler, ``make_cpu(...).run()`` under a ``Monitor`` for the profiled
run, ``write_gmon``/``read_gmon``, ``tree_reduce``, ``analyze`` (with a
``PipelineTrace`` when traced) and the two ``format_*`` listings.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.check.pipelinelint import pipeline_passes
from repro.core import analyze
from repro.fleet import tree_reduce, write_sum
from repro.gmon import dumps_gmon, read_gmon, write_gmon
from repro.lang import compile_to_asm, optimize, parse
from repro.lang.codegen import generate
from repro.machine import Monitor, MonitorConfig, assemble, make_cpu
from repro.pipeline import PipelineTrace
from repro.report import format_flat_profile, format_graph_profile

from benchmarks.e2e import oracles, workloads
from benchmarks.e2e.harness import Recorder, Round, median, python_env

#: Even a short run times at least this many ops.
MIN_OPS = 3
#: The layers every closed-loop workload imports.
COLD_IMPORT = ("import repro.lang, repro.machine, repro.gmon, repro.fleet, "
               "repro.pipeline, repro.report, repro.check.pipelinelint")


@dataclass
class Context:
    """What one workload run needs to know."""

    seed: int
    seconds: float
    trace: bool
    setup_reps: int
    work: os.PathLike  # this run's scratch directory
    rec: Recorder = field(default_factory=Recorder)
    inputs: dict[str, str] = field(default_factory=dict)  # name -> digest
    checks: list[tuple[str, bool]] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    query_ms: list[float] = field(default_factory=list)  # open-loop queries

    def check(self, what: str, ok: bool) -> None:
        """Record one run-level check (it counts as an attempted op)."""
        self.checks.append((what, bool(ok)))


# -- the paper's loop, one layer per span --------------------------------------


def compile_o2(r: Round, source: str, name: str):
    """-O2 with monitoring prologues: the ``cc -pg -O2`` step."""
    with r.span("lang.parse"):
        program = parse(source)
    with r.span("lang.optimize"):
        program = optimize(program, level=2)
    with r.span("lang.codegen"):
        asm = generate(program)
    with r.span("machine.assemble"):
        exe = assemble(asm, name=name, profile=True)
    r.count("lang.asm_instructions", len(exe.instructions))
    return asm, exe


def profiled_run(r: Round, exe, scale: float = 1.0, budget: int | None = None,
                 comment: str = ""):
    """One profiled run on the fast engine; returns (cpu, profile data)."""
    with r.span("machine.run"):
        monitor = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, scale=scale))
        cpu = make_cpu(exe, monitor)
        cpu.run(max_instructions=budget)
        data = monitor.mcleanup(comment=comment)
    r.count("machine.instructions", cpu.instructions_executed)
    r.count("machine.ticks", data.total_ticks)
    r.count("machine.mcount_calls", monitor.stats.lookups)
    return cpu, data


def analyze_render(r: Round, data, symbols):
    """The §4 stages and both listings; returns (profile, flat, graph)."""
    trace = PipelineTrace() if r.traced else None
    with r.span("pipeline.analyze"):
        profile = analyze(data, symbols, trace=trace)
    with r.span("report.render"):
        flat = format_flat_profile(profile)
        graph = format_graph_profile(profile)
    r.add_stages(trace)
    r.count("pipeline.routines", len(profile.flat_entries))
    r.count("pipeline.arcs", profile.graph.num_arcs())
    r.count("pipeline.cycles", len(profile.numbered.cycles))
    r.count("report.listing_bytes", len((flat + graph).encode("utf-8")))
    return profile, flat, graph


def closed_loop(ctx: Context, op, after) -> None:
    """Warm-up, then ops until ``ctx.seconds`` have passed.

    ``op(round)`` does the timed work and returns what ``after(index,
    round, result)`` needs to check it; ``after`` runs outside the op
    and returns whether the op's outputs were right.
    """
    deadline = None
    for i in itertools.count():
        if deadline is not None and i > MIN_OPS and time.perf_counter() >= deadline:
            return
        kind = "warmup" if i == 0 else "op"
        with ctx.rec.round(kind, i, traced=ctx.trace and i % 2 == 1) as r:
            result = op(r)
        r.ok = after(i, r, result)
        if deadline is None:
            deadline = time.perf_counter() + ctx.seconds


def setup_rounds(ctx: Context, build, cold_start: bool = True):
    """Run ``build(round, rep)`` ``ctx.setup_reps`` times; keep the last result.

    With ``cold_start`` each repetition first imports the layers in a
    fresh interpreter, so work moved into import time counts as set-up.
    """
    result = None
    for rep in range(ctx.setup_reps):
        with ctx.rec.round("setup", rep, traced=ctx.trace) as r:
            if cold_start:
                with r.span("setup.import"):
                    subprocess.run([sys.executable, "-c", COLD_IMPORT],
                                   env=python_env(), check=True)
            result = build(r, rep)
    return result


# -- canned ---------------------------------------------------------------------


def run_canned(ctx: Context) -> None:
    def build(r, rep):
        sources = workloads.canned_sources()
        expected = {name: oracles.canned_output(name, size)
                    for name, size in workloads.CANNED_SIZES.items()}
        return sources, expected

    sources, expected = setup_rounds(ctx, build)
    for name, source in sources.items():
        ctx.inputs[f"{name}.rel"] = workloads.digest(source)
    orders = workloads.canned_orders(ctx.seed)
    gmon = {name: os.path.join(ctx.work, f"{name}.gmon") for name in sources}
    first_listing: dict[str, str] = {}
    last: dict[str, tuple] = {}

    def op(r):
        order = next(orders)
        out = []
        for name in order:
            with r.span("program", program=name):
                asm, exe = compile_o2(r, sources[name], name)
                cpu, data = profiled_run(r, exe, comment=name)
                with r.span("gmon.write"):
                    write_gmon(data, gmon[name])
                with r.span("gmon.read"):
                    data = read_gmon(gmon[name])
                _, flat, graph = analyze_render(r, data, exe.symbol_table())
            out.append((name, asm, exe, cpu.output, data, flat + graph))
        return out

    def after(i, r, out):
        ok = True
        with ctx.rec.round("control", i) as c:
            for name, asm, exe, output, data, listing in out:
                r.count("gmon.bytes", os.path.getsize(gmon[name]))
                plain = assemble(asm, name=name, profile=False)
                with c.span("machine.run_unprofiled"):
                    cpu = make_cpu(plain)
                    cpu.run()
                ok &= output == expected[name] == cpu.output
                ok &= first_listing.setdefault(name, listing) == listing
                last[name] = (asm, exe, data)
        return ok

    closed_loop(ctx, op, after)
    with ctx.rec.round("check", 0, traced=ctx.trace):
        for name, (asm, exe, data) in sorted(last.items()):
            ctx.check(f"{name}: staged compile equals compile_to_asm",
                      compile_to_asm(sources[name], optimize_level=2) == asm)
            ctx.check(f"{name}: GP501-GP505 clean",
                      not pipeline_passes(exe.symbol_table(), data))
    ops = ctx.rec.of("op", traced=False)
    plain = {c.index: c.durations["machine.run_unprofiled"]
             for c in ctx.rec.of("control")}
    ctx.extra["profiling_overhead_x"] = median(
        r.durations["machine.run"] / plain[r.index] for r in ops)
    ctx.extra["machine.run_unprofiled_ms"] = median(
        plain[r.index] * 1e3 for r in ops)


# -- wide -----------------------------------------------------------------------


def run_wide(ctx: Context) -> None:
    def build(r, rep):
        program = workloads.wide_program(ctx.seed)
        return program, oracles.generated_output(program)

    program, expected = setup_rounds(ctx, build)
    ctx.inputs["wide.rel"] = workloads.digest(program.source)
    path = os.path.join(ctx.work, "wide.gmon")
    first_listing: list[str] = []
    last = []

    def op(r):
        asm, exe = compile_o2(r, program.source, "wide")
        cpu, data = profiled_run(r, exe, comment="wide")
        with r.span("gmon.write"):
            write_gmon(data, path)
        with r.span("gmon.read"):
            data = read_gmon(path)
        _, flat, graph = analyze_render(r, data, exe.symbol_table())
        return asm, exe, cpu.output, data, flat + graph

    def after(i, r, result):
        asm, exe, output, data, listing = result
        r.count("gmon.bytes", os.path.getsize(path))
        last[:] = [asm, exe, data]
        if not first_listing:
            first_listing.append(listing)
        return output == expected and listing == first_listing[0]

    closed_loop(ctx, op, after)
    asm, exe, data = last
    with ctx.rec.round("check", 0, traced=ctx.trace):
        ctx.check("staged compile equals compile_to_asm",
                  asm == compile_to_asm(program.source, optimize_level=2))
        ctx.check("GP501-GP505 clean",
                  not pipeline_passes(exe.symbol_table(), data))


# -- fleet ----------------------------------------------------------------------


def base_profiles(r: Round, program):
    """Compile ``program`` and cut its profiled run short at each budget.

    Returns the image, the base gmon blobs, and their oracle decodings.
    """
    _, exe = compile_o2(r, program.source, "fleet")
    blobs = []
    for budget in workloads.BASE_BUDGETS:
        _, data = profiled_run(r, exe, scale=workloads.FLEET_SCALE,
                               budget=budget)
        with r.span("gmon.write"):
            blobs.append(dumps_gmon(data))
        r.count("gmon.bytes", len(blobs[-1]))
    return exe, blobs, [oracles.decode_gmon(b) for b in blobs]


def run_fleet(ctx: Context) -> None:
    program = workloads.fleet_program(ctx.seed, "fleet")
    ctx.inputs["fleet.rel"] = workloads.digest(program.source)

    def build(r, rep):
        exe, blobs, bases = base_profiles(r, program)
        folder = os.path.join(ctx.work, "fleet")
        shutil.rmtree(folder, ignore_errors=True)
        os.makedirs(folder)
        oracle = oracles.FoldOracle(bases)
        stream = workloads.perturbations(ctx.seed, "fleet", bases)
        paths, files = [], hashlib.blake2b(digest_size=16)
        for i in range(workloads.FLEET_FILES):
            p = next(stream)
            oracle.add(p)
            blob = workloads.apply(blobs[p.base], bases[p.base], p)
            files.update(blob)
            paths.append(os.path.join(folder, f"{i:04d}.gmon"))
            with open(paths[-1], "wb") as f:
                f.write(blob)
        return exe.symbol_table(), paths, oracle.expected(), files.hexdigest()

    symbols, paths, expected, files_digest = setup_rounds(ctx, build)
    ctx.inputs["fleet.files"] = files_digest
    sum_path = os.path.join(ctx.work, "gmon.sum")
    first_listing: list[str] = []
    last = []

    def op(r):
        stats = {} if r.traced else None
        with r.span("fleet.merge"):
            data = tree_reduce(paths, stats_out=stats)
        with r.span("gmon.write"):
            write_sum(data, sum_path)
        _, flat, graph = analyze_render(r, data, symbols)
        r.count("fleet.files", len(paths))
        if stats:
            r.durations["fleet.parse"] = stats["parse_seconds"]
            r.durations["fleet.fold"] = stats["fold_seconds"]
        return data, flat + graph

    def after(i, r, result):
        data, listing = result
        with open(sum_path, "rb") as f:
            merged = f.read()
        r.count("gmon.bytes", len(merged))
        last[:] = [data]
        if not first_listing:
            first_listing.append(listing)
        return merged == expected and listing == first_listing[0]

    closed_loop(ctx, op, after)
    with ctx.rec.round("check", 0, traced=ctx.trace) as r:
        with r.span("gmon.read"):
            back = read_gmon(sum_path)
        h = back.histogram
        ctx.check("gmon.sum reads back to the oracle's sum", expected ==
                  oracles.encode_gmon(back.comment.encode(), back.runs,
                                      h.low_pc, h.high_pc, h.profrate, h.counts,
                                      [(a.from_pc, a.self_pc, a.count)
                                       for a in back.arcs]))
        ctx.check("GP501-GP505 clean", not pipeline_passes(symbols, last[0]))
    traced = ctx.rec.of("op", traced=True)
    for name in ("fleet.parse", "fleet.fold"):
        if traced:
            ctx.extra[f"{name}_ms"] = median(r.durations[name] * 1e3 for r in traced)

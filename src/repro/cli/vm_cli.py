"""The repro-vm command: assemble, run, and profile VM programs.

Subcommands::

    repro-vm list
        Show the canned program library.

    repro-vm asm SOURCE.s -o prog.vmexe [--profile] [--name NAME]
        Assemble (or, for .rl files, compile) a source file into an
        executable image.

    repro-vm run IMAGE_OR_SOURCE [--profile] [--gmon FILE]
                 [--ticks N] [--annotate] [--checkpoint N]
                 [--opt N] [--pgo GMON]
                 [--engine fast|reference]
                 [--cpus N [--procs M] [--sched SEED]
                  [--sched-policy rr|random|affinity|skew] [--quantum Q]]
        Execute a program (a .vmexe image, an assembly file, or a
        canned program name).  With --profile, attach the monitor and
        write the gmon file; with --annotate, print the per-instruction
        annotated disassembly afterwards; with --checkpoint N, flush a
        crash-safe snapshot to the gmon path every N clock ticks.
        With --cpus N, run M process instances of the program on an
        N-CPU machine with per-CPU profile shards and a seeded slice
        scheduler; the gmon file is the canonical shard merge, whose
        bytes are identical for every CPU count, seed, and policy.

This is the "compiler driver" of the reproduction's tool chain; its
output files feed repro-gprof / repro-prof.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ReproError
from repro.gmon import write_gmon
from repro.machine import (
    ENGINES,
    Executable,
    Monitor,
    MonitorConfig,
    assemble,
    make_cpu,
)
from repro.machine.programs import PROGRAMS
from repro.report.annotate import format_annotated_disassembly


def _load_program(
    spec: str,
    profile: bool,
    count_blocks: bool = False,
    optimize_level: int = 0,
    pgo: str | None = None,
    cycles_per_tick: int = 100,
) -> Executable:
    """Resolve IMAGE_OR_SOURCE: .vmexe image, canned name, or asm file.

    ``optimize_level`` and ``pgo`` (a gmon path enabling the
    profile-guided passes) apply to Rel sources only — images and
    assembly have no optimizer to feed.
    """
    is_rel = spec.endswith(".rl")
    if pgo is not None and not is_rel:
        raise ReproError(
            "--pgo needs Rel source (a .rl file): images and assembly "
            "have no optimizer to feed the profile to"
        )
    if optimize_level and not is_rel:
        raise ReproError("--opt needs Rel source (a .rl file)")
    if spec in PROGRAMS:
        return assemble(
            PROGRAMS[spec](), name=spec, profile=profile, count_blocks=count_blocks
        )
    if not os.path.exists(spec):
        raise ReproError(
            f"{spec!r} is neither a canned program ({', '.join(sorted(PROGRAMS))}) "
            "nor a file"
        )
    if spec.endswith(".vmexe"):
        return Executable.load(spec)
    with open(spec, encoding="utf-8") as f:
        text = f.read()
    if is_rel:
        from repro.lang import compile_source, feedback_from_data

        feedback = None
        if pgo is not None:
            from repro.gmon import read_gmon

            feedback = feedback_from_data(
                text,
                read_gmon(pgo),
                name=os.path.basename(spec),
                cycles_per_tick=cycles_per_tick,
            )
            print(f"pgo: {feedback.describe()}")
        return compile_source(
            text,
            name=os.path.basename(spec),
            profile=profile,
            count_blocks=count_blocks,
            optimize_level=optimize_level,
            feedback=feedback,
        )
    return assemble(
        text,
        name=os.path.basename(spec),
        profile=profile,
        count_blocks=count_blocks,
    )


def cmd_list(_opts) -> int:
    print("canned programs:")
    for name, builder in sorted(PROGRAMS.items()):
        doc = (builder.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:15s} {doc}")
    return 0


def cmd_asm(opts) -> int:
    with open(opts.source, encoding="utf-8") as f:
        source = f.read()
    if opts.source.endswith(".rl"):
        from repro.lang import compile_source

        exe = compile_source(
            source,
            name=opts.name or os.path.basename(opts.source),
            profile=opts.profile,
        )
    else:
        exe = assemble(
            source,
            name=opts.name or os.path.basename(opts.source),
            profile=opts.profile,
        )
    exe.save(opts.output)
    kind = "profiled" if opts.profile else "plain"
    print(
        f"assembled {len(exe.instructions)} instructions, "
        f"{len(exe.functions)} routines ({kind}) -> {opts.output}"
    )
    return 0


def cmd_run_cpus(opts, exe: Executable) -> int:
    """The --cpus path: a sharded multi-CPU run of ``--procs`` instances."""
    from repro.machine.smp import SMPMachine

    if opts.count:
        raise ReproError("--count is a uniprocessor feature; drop --cpus")
    if opts.checkpoint:
        raise ReproError("--checkpoint is a uniprocessor feature; drop --cpus")
    machine = SMPMachine(
        exe,
        ncpus=opts.cpus,
        nprocs=opts.procs,
        policy=opts.sched_policy,
        seed=opts.sched,
        quantum=opts.quantum,
        engine=opts.engine,
        profile=opts.profile,
        cycles_per_tick=opts.ticks,
    )
    machine.run()
    instructions = sum(p.cpu.instructions_executed for p in machine.procs)
    print(
        f"{exe.name}: {opts.procs} process(es) on {opts.cpus} cpu(s), "
        f"{instructions} instructions, {machine.wall_cycles} wall cycles, "
        f"{machine.rounds} rounds, {machine.migrations} migrations "
        f"({opts.sched_policy}, seed {opts.sched})"
    )
    if opts.profile:
        for shard in machine.shards:
            print(
                f"  cpu{shard.index}: {shard.histogram.total_ticks} samples, "
                f"{shard.arcs.total_calls} calls"
            )
        data = machine.merged_profile(comment=exe.name)
        write_gmon(data, opts.gmon)
        print(
            f"{data.total_ticks} samples, {data.total_calls} calls "
            f"merged from {len(machine.shards)} shard(s) -> {opts.gmon}"
        )
        if opts.annotate:
            print()
            print(format_annotated_disassembly(exe, data.histogram))
    return 0


def cmd_run(opts) -> int:
    exe = _load_program(
        opts.program,
        profile=opts.profile,
        count_blocks=opts.count,
        optimize_level=opts.opt,
        pgo=opts.pgo,
        cycles_per_tick=opts.ticks,
    )
    if opts.cpus:
        return cmd_run_cpus(opts, exe)
    monitor = None
    if opts.count and not exe.counter_names:
        raise ReproError(
            "image carries no block counters; re-assemble from source "
            "or use a canned program name with --count"
        )
    if opts.profile:
        if not exe.profiled:
            raise ReproError(
                "image was assembled without profiling prologues; "
                "re-assemble with --profile"
            )
        monitor = Monitor(
            MonitorConfig(
                exe.low_pc,
                exe.high_pc,
                cycles_per_tick=opts.ticks,
                checkpoint_path=opts.gmon if opts.checkpoint else None,
                checkpoint_interval=opts.checkpoint or 0,
            )
        )
    elif opts.checkpoint:
        raise ReproError("--checkpoint requires --profile")
    cpu = make_cpu(exe, monitor, engine=opts.engine)
    cpu.run()
    print(
        f"{exe.name}: {cpu.instructions_executed} instructions, "
        f"{cpu.cycles} cycles"
        + (f", output {cpu.output}" if cpu.output else "")
    )
    if monitor is not None:
        data = monitor.mcleanup(comment=exe.name)
        write_gmon(data, opts.gmon)
        checkpoints = (
            f" ({monitor.checkpoints_written} checkpoint flushes)"
            if opts.checkpoint
            else ""
        )
        print(
            f"{data.total_ticks} samples, {data.total_calls} calls "
            f"-> {opts.gmon}{checkpoints}"
        )
        if opts.annotate:
            print()
            print(format_annotated_disassembly(exe, data.histogram))
    if opts.count:
        from repro.machine.blockcounts import format_block_counts

        print()
        print(format_block_counts(cpu))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-vm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the canned program library")

    asm = sub.add_parser("asm", help="assemble a source file")
    asm.add_argument("source")
    asm.add_argument("-o", "--output", required=True)
    asm.add_argument("--profile", action="store_true")
    asm.add_argument("--name")

    run = sub.add_parser("run", help="run an image / source / canned program")
    run.add_argument("program")
    run.add_argument("--profile", action="store_true")
    run.add_argument("--gmon", default="gmon.out")
    run.add_argument("--ticks", type=int, default=100,
                     help="cycles per profiling clock tick")
    run.add_argument("--annotate", action="store_true",
                     help="print per-instruction sample annotation")
    run.add_argument("--checkpoint", type=int, default=0, metavar="N",
                     help="with --profile: crash-safely flush the profile "
                          "to the --gmon path every N clock ticks, so a "
                          "killed run still leaves a recent snapshot")
    run.add_argument("--count", action="store_true",
                     help="instrument basic blocks with inline counters "
                          "and print their exact execution counts")
    run.add_argument("--opt", type=int, default=0, choices=[0, 1, 2],
                     metavar="N",
                     help="Rel sources: static optimization level "
                          "(0 = none, 1 = fold/prune, 2 = +inline)")
    run.add_argument("--pgo", metavar="GMON", default=None,
                     help="Rel sources: recompile with profile-guided "
                          "optimization fed by this gmon file (from a "
                          "prior run with --profile); stale or empty "
                          "profiles degrade to a no-op with a warning")
    run.add_argument("--cpus", type=int, default=0, metavar="N",
                     help="run on an N-CPU machine with per-CPU profile "
                          "shards merged into one canonical gmon (0 = the "
                          "uniprocessor path)")
    run.add_argument("--procs", type=int, default=4, metavar="M",
                     help="with --cpus: process instances to run (the "
                          "workload; default 4).  The merged profile "
                          "depends only on this, never on the CPU count "
                          "or schedule")
    run.add_argument("--sched", type=int, default=0, metavar="SEED",
                     help="with --cpus: scheduler seed (any seed yields "
                          "byte-identical merged profiles)")
    run.add_argument("--sched-policy", default="rr",
                     choices=["rr", "random", "affinity", "skew"],
                     help="with --cpus: slice scheduling policy")
    run.add_argument("--quantum", type=int, default=500, metavar="Q",
                     help="with --cpus: nominal cycles per scheduling slice")
    run.add_argument("--engine", choices=sorted(ENGINES), default="fast",
                     help="interpreter engine: the predecoded fast engine "
                          "(default) or the reference engine, the readable "
                          "baseline kept as a debugging escape hatch — both "
                          "produce identical profiles")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    opts = build_parser().parse_args(argv)
    try:
        return {"list": cmd_list, "asm": cmd_asm, "run": cmd_run}[opts.command](opts)
    except (ReproError, OSError) as exc:
        print(f"repro-vm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The kgmon command: drive the simulated kernel's live profiling.

Usage::

    repro-kgmon [--iterations N] [--windows K] [--warmup-slices W]
                [--slice-rounds R] [--out-prefix PREFIX] [--checkpoint]
                [--cpus N] [--sched SEED] [--sched-policy POLICY]

Boots the simulated kernel on an N-CPU machine (one CPU by default),
optionally lets it warm up unprofiled, then records ``K`` profiling
windows (on → run → extract → reset), writing each window to
``PREFIX.window<i>.gmon`` plus the kernel's symbol table to
``PREFIX.syms`` — the workflow the retrospective describes for
profiling "events of interest in the kernel without taking the kernel
down".  A slice is ``R`` scheduling rounds, each one cycle quantum per
CPU.  Every core executes the kernel workload, profiling events land
in per-CPU shards with no cross-CPU locking, and each window is the
canonical merge of the shards; windows partition the run exactly, so
``repro-merge`` of all of them has the whole run's buckets and arcs.
With ``--checkpoint``, every window slice also crash-safely flushes
the in-flight data to ``PREFIX.ckpt.gmon`` (atomic write), so a
machine going down mid-window still leaves a recent consistent
snapshot.
Analyze a window with::

    repro-gprof PREFIX.syms PREFIX.window0.gmon -k if_output/netisr -k tcp_input/tcp_output
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.gmon import write_gmon
from repro.kernel import Kgmon, KernelSession


def _at_least_one(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-kgmon", description="live kernel profiling control"
    )
    parser.add_argument("--iterations", type=int, default=800,
                        help="kernel workload size (scheduling quanta)")
    parser.add_argument("--windows", type=int, default=2,
                        help="number of profiling windows to record")
    parser.add_argument("--warmup-slices", type=int, default=2,
                        help="unprofiled time slices before the first window")
    parser.add_argument("--slice-rounds", type=_at_least_one, default=8,
                        help="scheduling rounds per time slice")
    parser.add_argument("--out-prefix", default="kernel",
                        help="output file prefix")
    parser.add_argument("--checkpoint", action="store_true",
                        help="crash-safely flush in-flight window data to "
                             "PREFIX.ckpt.gmon after every slice")
    parser.add_argument("--cpus", type=int, default=1, metavar="N",
                        help="run the kernel on an N-CPU machine with "
                             "per-CPU profile shards")
    parser.add_argument("--sched", type=int, default=0, metavar="SEED",
                        help="scheduler seed")
    parser.add_argument("--sched-policy", default="rr",
                        choices=["rr", "random", "affinity", "skew"],
                        help="slice scheduling policy")
    opts = parser.parse_args(argv)
    try:
        session = KernelSession(
            ncpus=opts.cpus,
            iterations=opts.iterations,
            policy=opts.sched_policy,
            seed=opts.sched,
        )
        kgmon = Kgmon(session)
        kgmon.off()
        for _ in range(opts.warmup_slices):
            session.run_slice(opts.slice_rounds)
        session.symbol_table().save(f"{opts.out_prefix}.syms")
        recorded = 0
        while recorded < opts.windows and not session.halted:
            kgmon.reset()
            kgmon.on()
            session.run_slice(opts.slice_rounds)
            kgmon.off()
            if opts.checkpoint:
                kgmon.checkpoint(
                    f"{opts.out_prefix}.ckpt.gmon",
                    comment=f"checkpoint during window {recorded}",
                )
            window = kgmon.extract(f"window {recorded}")
            path = f"{opts.out_prefix}.window{recorded}.gmon"
            write_gmon(window, path)
            status = kgmon.status()
            print(
                f"window {recorded}: {window.total_ticks} ticks, "
                f"{window.total_calls} calls merged from {opts.cpus} "
                f"shard(s) -> {path} (wall {status.kernel_cycles} cycles, "
                f"{'halted' if status.halted else 'running'})"
            )
            recorded += 1
        print(f"symbols -> {opts.out_prefix}.syms")
        return 0
    except (ReproError, OSError) as exc:
        print(f"repro-kgmon: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

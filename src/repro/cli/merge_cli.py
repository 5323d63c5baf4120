"""The merge command: sum a fleet of profile data files into one.

Usage::

    repro-merge [options] INPUT [INPUT ...]

Each ``INPUT`` is a gmon file, a glob pattern (quoted, so the shell
does not expand it first — though pre-expanded arguments work too), or
a directory (every non-hidden file directly inside it, sorted).  The
inputs are summed in one streaming pass by the :mod:`repro.fleet`
merge driver and written as ``gmon.sum`` (or ``-o FILE``) — the
multi-run accumulation of §3 of the paper, at fleet scale.

Options:

* ``-o FILE`` — output path (default ``gmon.sum``);
* ``--salvage`` — recover corrupt inputs instead of aborting: files
  the strict parser rejects go through the salvaging parser, contribute
  their recovered prefix, and the merged data carries their
  degradation warnings;
* ``--skip-incompatible`` — drop inputs whose histogram layout does
  not match the fleet's (default: abort naming the first mismatch);
* ``--stats`` — print a merge summary table to stderr, including the
  kernel backend (``numpy`` where numpy imports, else ``python``) and
  the fleet-wide parse vs fold wall-time split;
* ``-q`` — print nothing but errors.

The output is deterministic: the same inputs in the same order always
produce a byte-identical file, with numpy or without.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.gmon import write_gmon
from repro.pipeline import ProfileSession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-merge",
        description="sum many profile data files into one gmon.sum",
    )
    parser.add_argument(
        "inputs", nargs="+", metavar="INPUT",
        help="gmon file, glob pattern, or directory of gmon files",
    )
    parser.add_argument(
        "-o", "--output", default="gmon.sum", metavar="FILE",
        help="where to write the summed profile (default: gmon.sum)",
    )
    parser.add_argument(
        "--salvage", action="store_true",
        help="recover corrupt/truncated inputs instead of aborting; "
             "their warnings are carried into the merged data",
    )
    parser.add_argument(
        "--skip-incompatible", action="store_true",
        help="skip inputs with a mismatched histogram layout instead "
             "of aborting on the first one",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print a merge summary (with the parse vs fold wall-time "
             "split and the kernel backend) to stderr",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print nothing but errors",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    opts = build_parser().parse_args(argv)
    merge_stats: dict | None = {} if opts.stats else None
    try:
        session = ProfileSession(None)
        data = session.load(
            opts.inputs,
            salvage=opts.salvage,
            on_incompatible="skip" if opts.skip_incompatible else "error",
            per_file_reports=False,
            stats_out=merge_stats,
        )
        write_gmon(data, opts.output)
    except (ReproError, OSError) as exc:
        print(f"repro-merge: {exc}", file=sys.stderr)
        return 1
    if data.warnings and not opts.quiet:
        for w in data.warnings:
            print(f"repro-merge: warning: {w}", file=sys.stderr)
    skipped = sum(1 for w in data.warnings if ": skipped (layout" in w)
    merged = len(session.paths) - skipped
    if opts.stats:
        print(
            f"repro-merge: {merged} input(s) merged, {skipped} skipped, "
            f"{data.runs} run(s), {data.total_ticks} tick(s), "
            f"{len(data.arcs)} distinct arc(s)",
            file=sys.stderr,
        )
        if merge_stats:
            parse_s = merge_stats.get("parse_seconds", 0.0)
            fold_s = merge_stats.get("fold_seconds", 0.0)
            nbytes = merge_stats.get("bytes", 0)
            mib_s = (
                f"{nbytes / parse_s / (1 << 20):.1f} MiB/s"
                if parse_s > 0 else "n/a"
            )
            print(
                f"repro-merge: kernel backend "
                f"{merge_stats.get('kernel_backend', '?')}: "
                f"parse {parse_s * 1000:.1f} ms ({mib_s}), "
                f"fold {fold_s * 1000:.1f} ms over "
                f"{merge_stats.get('inputs', 0)} wire input(s)",
                file=sys.stderr,
            )
    if not opts.quiet:
        print(f"summed {merged} profile(s) into {opts.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

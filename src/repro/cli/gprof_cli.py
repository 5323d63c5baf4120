"""The gprof command: analyze profile data against an executable image.

Usage::

    repro-gprof IMAGE GMON [GMON ...] [options]

``IMAGE`` is either a VM executable (saved with
:meth:`repro.machine.Executable.save`) or a bare symbol table (saved
with :meth:`repro.core.SymbolTable.save` — what the Python profiler
emits).  Multiple GMON files are summed, reproducing the multi-run
accumulation feature.

Options mirror the features the paper and retrospective describe:

* ``-E NAME`` — exclude a routine from the analysis;
* ``-k FROM/TO`` — delete a call graph arc (cycle breaking by hand);
* ``-C [N]`` — break remaining cycles heuristically, removing at most
  N arcs (the bounded NP-complete workaround);
* ``--static`` — crawl the executable for static arcs (VM images only);
* ``-s FILE`` / ``--sum FILE`` — write the summed data to FILE and
  exit (gmon.sum); summing runs on the :mod:`repro.fleet` merge
  driver, and GMON arguments may be glob patterns or directories;
* ``--min-percent`` — show only hot entries;
* ``-f NAME`` — restrict the graph profile to NAME and everything it
  reaches (repeatable);
* ``-z`` — list routines that were never called;
* ``--flat-only`` / ``--graph-only`` — pick one listing;
* ``--dot FILE`` — also write a Graphviz rendering;
* ``--lint`` — run the :mod:`repro.check` battery (instrumentation,
  CFG, and gmon-consistency checks) before reporting; findings go to
  stderr so the listings stay pipeable (VM images only);
* ``--expect`` — confront the measured profile with the *static
  prediction* (``--lint`` plus the dataflow battery and the
  GP610–GP612 expectation checks, VM images only), and annotate every
  flat-profile line with its §6 sampling confidence (expected error
  ∝ √samples) so statistically-meaningless numbers are visible;
* ``--salvage`` — read GMON files with the salvaging reader: corrupt
  or truncated files are recovered (maximal structurally-valid prefix)
  instead of aborting, each file's salvage report goes to stderr, and
  the listings carry a degraded-input banner;
* ``--timings`` — print the pipeline's per-stage wall time and work
  counters to stderr (the profiler profiling itself);
* ``--trace FILE`` — write the structured pipeline trace as JSON
  (deterministic modulo the timing fields).

The heavy lifting — image loading, gmon reading/salvaging/merging,
linting, and the staged analysis itself — rides
:class:`repro.pipeline.ProfileSession`, shared by every frontend.  No
option picks the bulk arithmetic underneath: each kernel has one
implementation per host (:mod:`repro.core.kernels`), and the listings
are identical with numpy or without.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import AnalysisOptions, SymbolTable
from repro.core.filters import reachable_from
from repro.errors import ReproError
from repro.gmon import write_gmon
from repro.machine import Executable, static_call_graph
from repro.pipeline import PipelineTrace, ProfileSession
from repro.report import format_flat_profile, format_graph_profile
from repro.report.dot import to_dot


def load_image(path: str) -> tuple[SymbolTable, Executable | None]:
    """Load either a VM executable or a bare symbol table from ``path``."""
    session = ProfileSession.from_image(path)
    return session.symbols, session.exe


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gprof", description="call graph execution profiler"
    )
    parser.add_argument("image", help="executable image or symbol table (JSON)")
    parser.add_argument(
        "gmon", nargs="+",
        help="profile data file(s), glob pattern(s), or director(ies); summed",
    )
    parser.add_argument(
        "-E", dest="exclude", action="append", default=[], metavar="NAME",
        help="exclude routine NAME from the analysis",
    )
    parser.add_argument(
        "-k", dest="delete_arcs", action="append", default=[], metavar="FROM/TO",
        help="delete the arc FROM/TO from the analysis",
    )
    parser.add_argument(
        "-C", dest="break_cycles", nargs="?", const=10, default=None,
        type=int, metavar="N",
        help="heuristically break cycles, removing at most N arcs",
    )
    parser.add_argument(
        "--static", action="store_true",
        help="augment with statically-discovered arcs (VM images only)",
    )
    parser.add_argument(
        "-s", "--sum", dest="sum_file", metavar="FILE",
        help="write summed profile data to FILE and exit",
    )
    parser.add_argument(
        "--min-percent", type=float, default=0.0,
        help="hide entries below this percentage of total time",
    )
    parser.add_argument(
        "-f", dest="focus", action="append", default=[], metavar="NAME",
        help="show only NAME and its descendants (repeatable)",
    )
    parser.add_argument(
        "-z", dest="zero", action="store_true",
        help="list routines never called",
    )
    parser.add_argument("--flat-only", action="store_true")
    parser.add_argument("--graph-only", action="store_true")
    parser.add_argument("--dot", metavar="FILE", help="write Graphviz output")
    parser.add_argument("--html", metavar="FILE",
                        help="write a navigable HTML report")
    parser.add_argument(
        "--coverage", action="store_true",
        help="print routine/arc coverage (meaningful with --static)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="append the field-by-field explanation of each listing",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the full analysis as structured JSON",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="validate the profile data against the executable before "
             "reporting (VM images only); findings are printed to stderr",
    )
    parser.add_argument(
        "--expect", action="store_true",
        help="confront measurement with the static prediction: --lint "
             "plus the dataflow battery and GP610-GP612, and annotate "
             "flat-profile lines with their sampling confidence "
             "(VM images only)",
    )
    parser.add_argument(
        "--salvage", action="store_true",
        help="recover corrupt/truncated gmon files instead of aborting; "
             "salvage reports go to stderr and the listings are marked "
             "as degraded",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print per-stage pipeline wall time and counters to stderr",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write the structured pipeline trace as JSON to FILE",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    opts = build_parser().parse_args(argv)
    try:
        session = ProfileSession.from_image(opts.image)
        exe = session.exe
        data = session.load(opts.gmon, salvage=opts.salvage)
        for _path, salvage_report in session.salvage_reports:
            if not salvage_report.clean:
                print(salvage_report.render_text(), end="", file=sys.stderr)
        if opts.lint or opts.expect:
            if exe is None:
                flag = "--expect" if opts.expect else "--lint"
                raise ReproError(f"{flag} needs a VM executable image")
            report = session.lint(
                [data], ["<summed gmon>"], flow=opts.expect
            )
            if len(report):
                print(report.render_text(), end="", file=sys.stderr)
        if opts.sum_file:
            write_gmon(data, opts.sum_file)
            print(
                f"summed {len(session.paths)} profile(s) into {opts.sum_file}"
            )
            return 0
        deleted = []
        for spec in opts.delete_arcs:
            if "/" not in spec:
                raise ReproError(f"-k wants FROM/TO, got {spec!r}")
            frm, to = spec.split("/", 1)
            deleted.append((frm, to))
        static_pairs: list[tuple[str, str]] = []
        if opts.static:
            if exe is None:
                raise ReproError("--static needs a VM executable image")
            static_pairs = sorted(static_call_graph(exe))
        trace = PipelineTrace() if (opts.timings or opts.trace) else None
        profile = session.analyze(
            data,
            AnalysisOptions(
                static_arcs=static_pairs,
                deleted_arcs=deleted,
                auto_break_cycles=opts.break_cycles is not None,
                max_removed_arcs=opts.break_cycles or 10,
                excluded=opts.exclude,
            ),
            trace=trace,
        )
        if trace is not None:
            if opts.timings:
                print(trace.render_text(), end="", file=sys.stderr)
            if opts.trace:
                with open(opts.trace, "w", encoding="utf-8") as f:
                    f.write(trace.render_json())
        only = None
        if opts.focus:
            only = reachable_from(profile.graph, opts.focus)
            only |= {
                c.name
                for c in profile.numbered.cycles
                if set(c.members) & only
            }
        out = []
        if not opts.flat_only:
            out.append(
                format_graph_profile(
                    profile, min_percent=opts.min_percent, only=only
                )
            )
            if opts.explain:
                from repro.report.explain import GRAPH_BLURB

                out.append(GRAPH_BLURB)
        confidence = None
        if opts.expect:
            from repro.check import sampling_confidence

            confidence = sampling_confidence(exe, data)
        if not opts.graph_only:
            out.append(
                format_flat_profile(
                    profile,
                    show_never_called=opts.zero,
                    min_percent=opts.min_percent,
                    confidence=confidence,
                )
            )
            if opts.explain:
                from repro.report.explain import FLAT_BLURB

                out.append(FLAT_BLURB)
        if opts.coverage:
            from repro.core.coverage import coverage, format_coverage

            out.append(format_coverage(coverage(profile)))
        print("\n".join(out), end="")
        if opts.dot:
            with open(opts.dot, "w", encoding="utf-8") as f:
                f.write(to_dot(profile, min_percent=opts.min_percent))
            print(f"\ngraph written to {opts.dot}")
        if opts.html:
            from repro.report.html import to_html

            with open(opts.html, "w", encoding="utf-8") as f:
                f.write(to_html(profile, title=opts.image,
                                min_percent=opts.min_percent))
            print(f"\nhtml report written to {opts.html}")
        if opts.json:
            from repro.core.export import save_profile_json

            save_profile_json(profile, opts.json)
            print(f"\njson profile written to {opts.json}")
        return 0
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"repro-gprof: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

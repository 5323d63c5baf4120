"""The repro-pgo command: run the §6 loop hands-free.

::

    repro-pgo SOURCE [--rounds N] [--level L] [--ticks N]
              [--engine fast|reference] [--out PROG.vmexe]
              [--instrumented] [--asm FILE.s] [--json]

``SOURCE`` is a Rel source file (``.rl``) or a canned Rel program name
(see ``repro-pgo --list``).  Each round compiles the current program
with monitoring prologues, runs it, maps the gmon data back onto the
AST, applies the profile-guided passes (branch ordering, benefit-model
inlining, hot/cold layout), verifies the rewrite is observably
identical, and reports the honest unprofiled cycle counts.  The paper
runs this loop with a programmer in the middle ("profiling the
program, eliminating one bottleneck, then finding some other part of
the program that begins to dominate"); this command is the same loop
with the programmer replaced by the feedback layer.

Exit status: 0 on success, 1 on usage/compile errors, 2 if any round
failed behaviour verification (which would be an optimizer bug — the
benchmark suite gates on it staying impossible).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import ReproError
from repro.lang import run_pgo
from repro.lang.programs import REL_PROGRAMS


def _load_source(spec: str) -> tuple[str, str]:
    """Resolve SOURCE to (program name, Rel text)."""
    if spec in REL_PROGRAMS:
        return spec, REL_PROGRAMS[spec]()
    if not os.path.exists(spec):
        raise ReproError(
            f"{spec!r} is neither a canned Rel program "
            f"({', '.join(sorted(REL_PROGRAMS))}) nor a file"
        )
    if not spec.endswith(".rl"):
        raise ReproError(
            "repro-pgo optimizes Rel source; expected a .rl file or a "
            "canned Rel program name"
        )
    with open(spec, encoding="utf-8") as f:
        return os.path.basename(spec), f.read()


def _transform_summary(counters: dict[str, int]) -> str:
    """The interesting counters, compressed for the round table."""
    names = [
        ("branch-order.reordered_ifs", "ifs"),
        ("branch-order.rotated_loops", "loops"),
        ("inline.sites_expanded", "inlined"),
        ("hot-cold-layout.functions_moved", "moved"),
    ]
    parts = [
        f"{label} {counters[key]}"
        for key, label in names
        if counters.get(key)
    ]
    return ", ".join(parts) if parts else "none"


def _report_text(result) -> None:
    print(f"== repro-pgo: {result.name} (level {result.level}) ==")
    for r in result.rounds:
        hot = ", ".join(name for name, _ in r.hot) or "-"
        print(
            f"round {r.index}: {r.samples} samples, {r.calls} calls; "
            f"hot: {hot}"
        )
        print(
            f"  {r.cycles_before} -> {r.cycles_after} cycles "
            f"({r.saved:+d} saved); transforms: "
            f"{_transform_summary(r.counters)}; "
            f"behaviour {'identical' if r.identical else 'DIVERGED'}"
        )
        for warning in r.warnings:
            print(f"  warning: {warning}")
    pct = (
        100.0 * result.saved / result.cycles_baseline
        if result.cycles_baseline
        else 0.0
    )
    print(
        f"total: {result.cycles_baseline} -> {result.cycles_final} cycles "
        f"({result.saved:+d}, {pct:.1f}% saved) over "
        f"{len(result.rounds)} round(s)"
    )


def _report_json(result) -> None:
    blob = {
        "name": result.name,
        "level": result.level,
        "cycles_baseline": result.cycles_baseline,
        "cycles_final": result.cycles_final,
        "saved": result.saved,
        "identical": result.identical,
        "bottleneck": result.bottleneck,
        "output": result.output,
        "rounds": [
            {
                "index": r.index,
                "samples": r.samples,
                "calls": r.calls,
                "cycles_before": r.cycles_before,
                "cycles_after": r.cycles_after,
                "saved": r.saved,
                "hints": r.hints,
                "counters": r.counters,
                "hot": [[name, seconds] for name, seconds in r.hot],
                "warnings": r.warnings,
                "identical": r.identical,
            }
            for r in result.rounds
        ],
    }
    print(json.dumps(blob, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-pgo", description=__doc__)
    parser.add_argument("source", nargs="?",
                        help="Rel source file (.rl) or canned Rel "
                             "program name")
    parser.add_argument("--list", action="store_true",
                        help="show the canned Rel program library")
    parser.add_argument("--rounds", type=int, default=1, metavar="N",
                        help="measure→optimize trips to make (default 1)")
    parser.add_argument("--level", type=int, default=0, choices=[0, 1, 2],
                        help="static optimization level applied before "
                             "the first measurement (default 0)")
    parser.add_argument("--ticks", type=int, default=100,
                        help="cycles per profiling clock tick")
    parser.add_argument("--engine", default="fast",
                        help="VM interpreter engine for every run")
    parser.add_argument("--out", metavar="FILE",
                        help="write the final optimized executable here")
    parser.add_argument("--instrumented", action="store_true",
                        help="with --out: plant monitoring prologues in "
                             "the written image, so the optimized "
                             "program can be re-measured")
    parser.add_argument("--asm", metavar="FILE",
                        help="write the final optimized assembly here")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    opts = build_parser().parse_args(argv)
    if opts.list:
        print("canned Rel programs:")
        for name, builder in sorted(REL_PROGRAMS.items()):
            doc = (builder.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:15s} {doc}")
        return 0
    if not opts.source:
        print("repro-pgo: a SOURCE (or --list) is required", file=sys.stderr)
        return 1
    try:
        name, text = _load_source(opts.source)
        result = run_pgo(
            text,
            name=name,
            level=opts.level,
            rounds=opts.rounds,
            cycles_per_tick=opts.ticks,
            engine=opts.engine,
        )
        if opts.json:
            _report_json(result)
        else:
            _report_text(result)
        if opts.asm:
            with open(opts.asm, "w", encoding="utf-8") as f:
                f.write(str(result.asm))
            if not opts.json:
                print(f"optimized assembly -> {opts.asm}")
        if opts.out:
            from repro.machine import assemble

            exe = assemble(
                result.asm, name=name, profile=opts.instrumented
            )
            exe.save(opts.out)
            if not opts.json:
                kind = "instrumented" if opts.instrumented else "plain"
                print(f"optimized executable ({kind}) -> {opts.out}")
        return 0 if result.identical else 2
    except (ReproError, OSError) as exc:
        print(f"repro-pgo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

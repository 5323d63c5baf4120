"""Build and verify a corrupt-gmon corpus from the canned programs.

Run as a module::

    PYTHONPATH=src python -m tests.corrupt_corpus --out corpus/ --flips 500
    PYTHONPATH=src python -m tests.corrupt_corpus --flips 500 --verify

For every canned VM program the generator runs a real profiled
execution, serializes the resulting profile, and then mutates the
bytes two ways:

* **every** single-byte truncation (optionally strided down with
  ``--stride`` for quick local runs), and
* ``--flips`` seeded random single-bit flips per program.

``--out DIR`` writes each mutant to disk (``NAME.trunc<k>.gmon`` /
``NAME.flip<off>.<bit>.gmon``) so external tools can chew on the
corpus; without it the mutants stay in memory.  ``--verify`` asserts
the resilience contract over the whole corpus:

* strict parsing raises :class:`GmonFormatError` and nothing else;
* salvage *never* raises, and never reports a truncated file clean;
* the strict-first rule that salvage merges (:mod:`repro.fleet.reduce`)
  rely on: a file strict parsing accepts with ``runs != 0`` is one
  salvage reports clean, with equal data and no warnings, and every
  other file salvage reports damaged.

The CI fault-injection job runs this with ``--verify`` over all
programs; :mod:`tests.test_corrupt_corpus` smoke-tests a small slice.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import GmonFormatError
from repro.gmon import (
    dumps_gmon, parse_gmon, parse_gmon_raw, salvage_gmon_bytes,
)
from repro.machine import CPU, Monitor, MonitorConfig, assemble
from repro.machine.programs import PROGRAMS
from repro.resilience import all_truncations, random_bit_flips

DEFAULT_FLIPS = 500


def valid_blob(name: str, cycles_per_tick: int = 40) -> bytes:
    """Profile one canned program for real and serialize the result."""
    exe = assemble(PROGRAMS[name](), name=name, profile=True)
    monitor = Monitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=cycles_per_tick)
    )
    CPU(exe, monitor).run()
    return dumps_gmon(monitor.mcleanup(comment=name))


def mutants(blob: bytes, flips: int, stride: int = 1, seed: int = 0):
    """Yield ``(tag, is_truncation, mutated_bytes)`` for one blob."""
    for cut, mutated in all_truncations(blob):
        if cut % stride == 0:
            yield f"trunc{cut}", True, mutated
    for offset, bit, mutated in random_bit_flips(blob, flips, seed=seed):
        yield f"flip{offset}.{bit}", False, mutated


def check_mutant(tag: str, truncated: bool, mutated: bytes) -> str | None:
    """Verify one mutant; return an error description or None."""
    try:
        strict = parse_gmon(mutated)
    except GmonFormatError:
        strict = None
    except Exception as exc:  # noqa: BLE001 - the whole point of the gate
        return f"{tag}: strict raised {type(exc).__name__}: {exc}"
    try:
        salvaged, report = salvage_gmon_bytes(mutated, source=tag)
    except Exception as exc:  # noqa: BLE001
        return f"{tag}: salvage raised {type(exc).__name__}: {exc}"
    if truncated and report.clean:
        return f"{tag}: truncated file reported clean (silent lie)"
    if strict is None:
        if report.clean:
            return f"{tag}: strict rejected it but salvage reported clean"
        return None
    if parse_gmon_raw(mutated).runs == 0:
        if report.clean:
            return f"{tag}: declares runs == 0 but salvage reported clean"
        return None
    if not report.clean:
        return f"{tag}: strict accepted it but salvage reported damage"
    if salvaged.warnings or dumps_gmon(salvaged) != dumps_gmon(strict):
        return f"{tag}: salvage data differs from the strict parse"
    return None


def run(programs, flips: int, stride: int, out: str | None,
        verify: bool, log=print) -> int:
    """Generate (and optionally write / verify) the corpus.

    Returns the number of contract violations found (0 == pass).
    """
    if out:
        os.makedirs(out, exist_ok=True)
    total = 0
    failures: list[str] = []
    for name in programs:
        blob = valid_blob(name)
        count = 0
        for tag, truncated, mutated in mutants(blob, flips, stride):
            count += 1
            if out:
                with open(os.path.join(out, f"{name}.{tag}.gmon"), "wb") as f:
                    f.write(mutated)
            if verify:
                problem = check_mutant(f"{name}.{tag}", truncated, mutated)
                if problem:
                    failures.append(problem)
        log(f"{name}: {len(blob)} bytes -> {count} mutants")
        total += count
    log(f"corpus: {total} mutants across {len(list(programs))} programs")
    for problem in failures:
        log(f"FAIL {problem}")
    if verify and not failures:
        log("verify: strict raises only GmonFormatError; salvage never "
            "raises; strict-first holds")
    return len(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="corrupt_corpus", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", help="write mutant files into this directory")
    parser.add_argument("--flips", type=int, default=DEFAULT_FLIPS,
                        help="random bit flips per program "
                             f"(default {DEFAULT_FLIPS})")
    parser.add_argument("--stride", type=int, default=1,
                        help="keep every Nth truncation (default: all)")
    parser.add_argument("--programs", nargs="*",
                        help="canned programs to mutate (default: all)")
    parser.add_argument("--verify", action="store_true",
                        help="assert the strict/salvage contract per mutant")
    opts = parser.parse_args(argv)
    programs = opts.programs or sorted(PROGRAMS)
    unknown = [p for p in programs if p not in PROGRAMS]
    if unknown:
        print(f"unknown programs: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures = run(programs, opts.flips, opts.stride, opts.out, opts.verify)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

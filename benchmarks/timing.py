"""One timer for the perf-trajectory suites behind ``emit_bench``.

A suite times a few named *variants* of one piece of work (the fast and
the reference engine, a cold and a warm cache, a durable and a no-fsync
ingest) in interleaved rounds: each round runs every variant once, and
the variant that goes first rotates from round to round.  The host's
speed swings by tens of percent every few seconds (EXPERIMENTS T-E2E,
"Run-to-run spread"), and the variants of one round see nearly the
same speed, so a ratio column is the median of per-round ratios, never
a ratio of two best-of-N blocks timed one after the other.

Every timing and ratio column a suite writes is :func:`summary`'s
``{median, q1, q3, n}``, a rate column is derived from a median, and
every report opens with :func:`header`.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable, Iterable

from benchmarks.e2e.harness import host_fingerprint, quartiles


def header(benchmark: str, quick: bool, repeats: int) -> dict:
    """The fields every ``BENCH_*.json`` report opens with."""
    return {
        "benchmark": benchmark,
        "mode": "quick" if quick else "full",
        "host": host_fingerprint(),
        "repeats": repeats,
    }


def rounds(variants: dict[str, Callable], repeats: int,
           setup: Callable | None = None) -> tuple[dict, dict]:
    """Time every variant once per round, for ``repeats`` rounds.

    Round ``i`` starts with the ``i % len(variants)``-th variant and runs
    the rest in their given order, wrapping around.  ``setup``, when
    given, runs untimed at the start of every round, and its value is
    the one argument of each variant in that round; without it the
    variants take no argument.  As in :mod:`timeit`, the garbage
    collector is off while a variant runs and back on between calls,
    so a collection of the whole suite's heap never lands inside a
    timed call (EXPERIMENTS T-PIPE).

    Returns ``(seconds, results)``: each variant's wall-clock seconds,
    one per round, and what it returned in the last round.
    """
    names = list(variants)
    seconds = {name: [] for name in names}
    results = {}
    enabled = gc.isenabled()
    for i in range(repeats):
        args = () if setup is None else (setup(),)
        first = i % len(names)
        for name in names[first:] + names[:first]:
            gc.disable()
            try:
                start = time.perf_counter()
                results[name] = variants[name](*args)
                seconds[name].append(time.perf_counter() - start)
            finally:
                if enabled:
                    gc.enable()
    return seconds, results


def fresh_rounds(makers: dict[str, Callable], repeats: int):
    """:func:`rounds` of ``run()`` on objects built anew every round.

    ``makers`` maps each variant's name to a constructor of the object
    it runs (a CPU, a machine), called untimed at the start of every
    round.  Returns ``(seconds, the last round's objects)``.
    """
    def runner(name):
        def run(objects):
            objects[name].run()
            return objects[name]
        return run

    return rounds(
        {name: runner(name) for name in makers},
        repeats,
        setup=lambda: {name: make() for name, make in makers.items()},
    )


def summary(values: Iterable[float]) -> dict:
    """``{median, q1, q3, n}`` of seconds or per-round ratios, each
    figure to six significant digits."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    return {"median": _sig(median), "q1": _sig(q1), "q3": _sig(q3),
            "n": len(values)}


def ratio(seconds: dict, over: str, under: str) -> dict:
    """The summary of ``over``'s seconds divided by ``under``'s, round
    by round: a speedup, cost factor or overhead."""
    return summary(a / b for a, b in zip(seconds[over], seconds[under]))


def spread(column: dict) -> str:
    """A ratio column as ``median x [q1, q3]``, for progress lines."""
    return f"{column['median']:.2f}x [{column['q1']:.2f}, {column['q3']:.2f}]"


def _sig(value: float) -> float:
    return float(f"{value:.6g}")

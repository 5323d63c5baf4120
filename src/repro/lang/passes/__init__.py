"""The Rel compiler's staged pass pipeline.

``optimize.py`` used to be a monolith — one function that folded,
pruned, and inlined in a single recursive sweep.  It is now a pipeline
of named passes mirroring the ``repro.pipeline`` stage discipline:
each pass declares what it ``requires`` and ``provides``, transforms
the AST functionally, and reports what it did through counters.

The standard pipelines (:func:`build_pipeline`):

========  =======================  =========================================
level     without feedback         with usable feedback
========  =======================  =========================================
0         (empty)                  branch-order, inline(pgo), layout
1         fold, dead-code          + branch-order first, inline(pgo),
                                   layout last
2         fold, dead-code,         same as level 1 + feedback — the profile
          inline(static)           replaces the static inline heuristic
========  =======================  =========================================

Ordering rationale: ``branch-order`` must run *first* because its
branch ordinals were assigned on the measured tree shape, before any
pass changes it; ``hot-cold-layout`` must run *last* because inlining
can delete routines and layout must permute the final routine set.
Profile passes are built in even when the feedback turns out to be
empty or stale — they no-op internally — so a zero-sample or
wrong-version profile makes PGO exactly the identity transform over
the static pipeline.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import LangError
from repro.lang import ast
from repro.lang.passes.base import Pass, PassTrace
from repro.lang.passes.branch import BranchOrderPass
from repro.lang.passes.deadcode import DeadCodePass
from repro.lang.passes.fold import ConstFoldPass
from repro.lang.passes.inline import (
    INLINE_BODY_LIMIT,
    LINKAGE_CYCLES,
    InlinePass,
)
from repro.lang.passes.layout import HotColdLayoutPass

__all__ = [
    "BranchOrderPass",
    "ConstFoldPass",
    "DeadCodePass",
    "HotColdLayoutPass",
    "INLINE_BODY_LIMIT",
    "InlinePass",
    "LINKAGE_CYCLES",
    "Pass",
    "PassTrace",
    "build_pipeline",
    "merge_counters",
    "run_passes",
]


def build_pipeline(level: int = 1, feedback=None) -> list[Pass]:
    """The standard pass list for an optimization level (+ feedback)."""
    if isinstance(level, bool) or level not in (0, 1, 2):
        raise LangError(f"unknown optimization level {level!r}")
    passes: list[Pass] = []
    if feedback is not None:
        passes.append(BranchOrderPass())
    if level >= 1:
        passes.append(ConstFoldPass())
        passes.append(DeadCodePass())
    if level >= 2 or feedback is not None:
        passes.append(InlinePass(static=level >= 2))
    if feedback is not None:
        passes.append(HotColdLayoutPass())
    return passes


def run_passes(
    program: ast.Program, passes: list[Pass], feedback=None
) -> tuple[ast.Program, list[PassTrace]]:
    """Run ``passes`` in order, enforcing the requires/provides contract.

    Returns the transformed program and one :class:`PassTrace` per
    pass.  A pass whose ``requires`` has not been provided by an
    earlier pass is a pipeline construction bug and raises
    :class:`~repro.errors.LangError` — the compiler analogue of the
    analysis pipeline refusing to run stages out of order.
    """
    provided: set[str] = set()
    traces: list[PassTrace] = []
    for p in passes:
        missing = [req for req in p.requires if req not in provided]
        if missing:
            raise LangError(
                f"pass {p.name!r} requires {missing} but the pipeline "
                f"only provides {sorted(provided)}"
            )
        counters: dict[str, int] = defaultdict(int)
        program = p.run(program, feedback, counters)
        provided.update(p.provides)
        traces.append(PassTrace(p.name, dict(counters)))
    return program, traces


def merge_counters(traces: list[PassTrace]) -> dict[str, int]:
    """Fold every trace's counters into one ``pass.counter`` dict."""
    merged: dict[str, int] = {}
    for trace in traces:
        for key, value in trace.counters.items():
            merged[f"{trace.name}.{key}"] = value
    return merged

"""The Rel compiler's staged pass pipeline.

``optimize.py`` used to be a monolith — one function that folded,
pruned, and inlined in a single recursive sweep.  It is now a list of
named passes, each a :class:`repro.trace.Stage` — the protocol the §4
analysis stages use — over a :class:`CompileState`: a pass declares
what it ``requires`` and ``provides``, sets ``state.program`` to a new
tree (never mutating the old one), and reports what it did through
counters.  :func:`repro.trace.run_stages` checks the order and runs
the list; a :class:`~repro.trace.PipelineTrace` records it.

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

from dataclasses import dataclass

from repro.errors import LangError
from repro.lang import ast
from repro.lang.passes.branch import BranchOrderPass
from repro.lang.passes.deadcode import DeadCodePass
from repro.lang.passes.fold import ConstFoldPass
from repro.lang.passes.inline import LINKAGE_CYCLES, InlinePass
from repro.lang.passes.layout import HotColdLayoutPass
from repro.trace import Stage

__all__ = [
    "BranchOrderPass",
    "CompileState",
    "ConstFoldPass",
    "DeadCodePass",
    "HotColdLayoutPass",
    "InlinePass",
    "LINKAGE_CYCLES",
    "build_pipeline",
]


@dataclass
class CompileState:
    """What the compiler passes read and write.

    Attributes:
        program: the current tree; each pass replaces it with a new one.
        feedback: measured :class:`~repro.lang.feedback.ProfileFeedback`
            for the profile passes, or None.
    """

    program: ast.Program
    feedback: object = None

    @property
    def feedback_active(self) -> bool:
        """Whether ``feedback`` carries usable measurements.

        ``None``, stale, and zero-sample feedback all count as absent,
        so every profile pass degrades to the identity transform on
        bad input instead of guessing.
        """
        return self.feedback is not None and not self.feedback.empty


def build_pipeline(level: int = 1, feedback=None) -> list[Stage]:
    """The standard pass list for an optimization level (+ feedback)."""
    if isinstance(level, bool) or level not in (0, 1, 2):
        raise LangError(f"unknown optimization level {level!r}")
    passes: list[Stage] = []
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

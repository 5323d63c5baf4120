"""The optimizer facade: ``optimize(program, level=…, profile=…)``.

The implementation lives in :mod:`repro.lang.passes` as a staged pass
pipeline (const-fold, dead-code, inline, plus the profile-consuming
branch-order / pgo-inline / hot-cold-layout passes).  This module
keeps the stable entry point and its level semantics:

* ``level=0`` — no static optimization;
* ``level=1`` — constant folding, branch pruning, dead-code removal;
* ``level=2`` — level 1 plus §6 inline expansion (static heuristic).

Passing ``profile=`` (a :class:`~repro.lang.feedback.ProfileFeedback`)
adds the profile-guided passes at any level: measured-benefit inlining
replaces the static heuristic, branches reorder onto their measured
fall-through, and functions are laid out hot-first.  Empty or stale
feedback degrades every profile pass to a no-op, so PGO with a useless
profile is exactly the identity transform over the static pipeline.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.passes import (
    INLINE_BODY_LIMIT,  # noqa: F401  (re-exported: the historical home)
    build_pipeline,
    run_passes,
)


def optimize(
    program: ast.Program, level: int = 1, profile=None
) -> ast.Program:
    """Optimize a parsed program; returns a new tree (input unchanged).

    Arguments:
        program: the parsed tree (not mutated).
        level: 0 (nothing), 1 (fold/prune — the default), or
            2 (fold/prune + §6 inline expansion).
        profile: optional measured feedback
            (:class:`~repro.lang.feedback.ProfileFeedback`); enables
            the profile-guided passes.
    """
    optimized, _traces = run_passes(
        program, build_pipeline(level, profile), profile
    )
    return optimized

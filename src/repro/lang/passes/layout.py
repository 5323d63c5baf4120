"""Hot/cold function layout: permute routines by measured self time.

§3.2's histogram spreads each tick across the routines sharing its
bucket, so the sharpness of the flat profile depends on how routines
pack into buckets.  Packing the hot routines contiguously at the front
of the text segment concentrates the samples where the mass is;
never-executed routines sink to a cold tail where their zero-count
buckets stop diluting their neighbours'.

The pass may *only permute* ``program.functions`` — never split, pad,
or reorder within a routine (DESIGN.md records why: the static crawl
and the checker both assume each routine is one contiguous,
declaration-shaped region).  Two more invariants:

* cycle members (from the §4 analysis) stay adjacent, in declaration
  order, and their shared mass is counted once per member's own self
  time — never the cycle total per member;
* ties (and the cold tail) fall back to declaration order, keeping
  the permutation deterministic for byte-identical rebuilds.
"""

from __future__ import annotations

from repro.lang.passes.fold import replace_program
from repro.trace import Stage


class HotColdLayoutPass(Stage):
    """Sort functions hottest-first; cold tail keeps declaration order."""

    name = "hot-cold-layout"

    def run(self, state, counters):
        if not state.feedback_active:
            return
        program, feedback = state.program, state.feedback
        decl_index = {fn.name: i for i, fn in enumerate(program.functions)}
        # Group cycle members so they stay adjacent (anchored at the
        # first member's declaration slot, members in declaration order).
        group_of = {}
        for members in feedback.cycle_groups:
            present = sorted(
                (m for m in members if m in decl_index),
                key=decl_index.__getitem__,
            )
            for m in present:
                group_of[m] = tuple(present)
        groups: list[tuple[str, ...]] = []
        seen = set()
        for fn in program.functions:
            if fn.name in seen:
                continue
            group = group_of.get(fn.name, (fn.name,))
            groups.append(group)
            seen.update(group)

        def mass(group: tuple[str, ...]) -> float:
            # Each member contributes its own §4 self seconds exactly
            # once — cycle mass is shared, not multiplied.
            return sum(feedback.self_seconds(name) for name in group)

        def executed(group: tuple[str, ...]) -> bool:
            return any(
                feedback.self_seconds(name) > 0 or feedback.calls_into(name) > 0
                for name in group
            )

        hot = [g for g in groups if executed(g)]
        cold = [g for g in groups if not executed(g)]
        hot.sort(key=lambda g: (-mass(g), decl_index[g[0]]))
        by_name = {fn.name: fn for fn in program.functions}
        ordered = [by_name[name] for g in hot + cold for name in g]
        counters["functions_moved"] = sum(
            1
            for i, fn in enumerate(ordered)
            if decl_index[fn.name] != i
        )
        counters["cold_routines"] = sum(len(g) for g in cold)
        state.program = replace_program(program, ordered)

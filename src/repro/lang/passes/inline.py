"""§6 inline expansion — static heuristic and profile-driven selection.

The paper's first optimization is a compiler-shaped one ("If this
format routine is expanded inline in the output routine, the overhead
of a function call and return can be saved"), and its drawback is a
profiling story ("the profiling will also become less useful since the
loss of routines will make its output more granular").

Two selection policies share one expansion engine:

* **static** (``-O2``, no profile): every safely-inlinable routine is
  expanded.
* **profile-driven** (feedback present): a candidate is expanded only
  when the measured benefit — arc call count × the per-call linkage
  cost × a body-size discount — clears :data:`MIN_BENEFIT_CYCLES`.
  Routines the profile never saw called stay out-of-line, preserving
  profile granularity exactly where the measurements say it is free
  to keep.

Safety (what *may* be inlined) is unchanged either way: a candidate's
whole body must be one call-free ``return expr``, and substitution
must not duplicate non-trivial argument expressions.
"""

from __future__ import annotations

from dataclasses import replace

from repro.lang import ast
from repro.lang.passes.fold import replace_program
from repro.trace import Stage

#: Cap on the body size (statements) of a routine considered for §6
#: inline expansion.
INLINE_BODY_LIMIT = 2

#: Cycles saved per avoided call linkage: CALL (4) + RET (3) + the
#: argument STORE in the prologue (1).  Matches the 8–20 cycles/call
#: band the inline ablation benchmark pins.
LINKAGE_CYCLES = 8

#: A profile-selected candidate must promise at least this many saved
#: cycles (measured calls × LINKAGE_CYCLES) to be worth losing its
#: line in the profile.
MIN_BENEFIT_CYCLES = LINKAGE_CYCLES  # i.e. at least one measured call


class InlinePass(Stage):
    """Expand trivially-inlinable routines into their callers."""

    name = "inline"
    provides = ("inlined",)

    def __init__(self, static: bool = False):
        #: Whether to fall back to expand-everything when no usable
        #: feedback is available (the -O2 static policy).
        self.static = static

    def run(self, state, counters):
        program, feedback = state.program, state.feedback
        if not state.feedback_active and not self.static:
            return  # a true no-op: no policy has data to act on
        candidates = find_inlinable(program.functions)
        counters["candidates"] = len(candidates)
        if state.feedback_active:
            selected = {}
            for name, fn in candidates.items():
                if inline_benefit(fn, feedback.calls_into(name)) >= 0:
                    selected[name] = fn
                else:
                    counters["cold_skipped"] += 1
        else:
            selected = candidates
        if not selected:
            return
        functions = [
            replace(fn, body=_inline_in(fn.body, selected, fn.name, counters))
            for fn in program.functions
        ]
        # §6: a fully-inlined routine disappears from the program (and,
        # later, from the profile — "the loss of routines will make its
        # output more granular").  A routine some call site could not
        # inline (unsafe argument duplication) must of course stay.
        still_called = set()
        for fn in functions:
            collect_calls(fn.body, still_called)
        kept = [
            fn
            for fn in functions
            if fn.name == "main"
            or fn.name not in selected
            or fn.name in still_called
        ]
        counters["routines_removed"] = len(functions) - len(kept)
        state.program = replace_program(program, kept)


# -- the benefit model ---------------------------------------------------------


def inline_benefit(fn: ast.Function, calls: int) -> float:
    """Net score of inlining ``fn`` given its measured incoming calls.

    The arc-count × body-size model: each avoided call saves the
    linkage cycles, but every expansion duplicates the body at the
    call site, so a bigger body demands proportionally more measured
    calls before it earns its loss of profile granularity.
    Non-negative means "worth it".
    """
    size = _expr_size(fn.body[0].value)
    return calls * LINKAGE_CYCLES - size * MIN_BENEFIT_CYCLES


def _expr_size(expr: ast.Expr) -> int:
    """Node count of an expression — the body-size term of the model."""
    if isinstance(expr, ast.Binary):
        return 1 + _expr_size(expr.left) + _expr_size(expr.right)
    if isinstance(expr, ast.Unary):
        return 1 + _expr_size(expr.operand)
    if isinstance(expr, ast.Index):
        return 1 + _expr_size(expr.index)
    if isinstance(expr, ast.Call):
        return 1 + sum(_expr_size(a) for a in expr.args)
    return 1


# -- candidate discovery -------------------------------------------------------


def find_inlinable(functions) -> dict[str, ast.Function]:
    """Routines whose whole body is one call-free ``return expr``."""
    table = {}
    for fn in functions:
        if fn.name == "main" or len(fn.body) > INLINE_BODY_LIMIT:
            continue
        if (
            len(fn.body) == 1
            and isinstance(fn.body[0], ast.Return)
            and fn.body[0].value is not None
            and _call_free(fn.body[0].value)
        ):
            table[fn.name] = fn
    return table


def _call_free(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Call):
        return False
    if isinstance(expr, ast.Binary):
        return _call_free(expr.left) and _call_free(expr.right)
    if isinstance(expr, ast.Unary):
        return _call_free(expr.operand)
    if isinstance(expr, ast.Index):
        return _call_free(expr.index)
    return True


def _safe_to_substitute(fn: ast.Function, args) -> bool:
    """Substitution duplicates argument expressions; that is safe only
    when every multiply-used parameter receives a *simple* argument (a
    variable or literal — no work, no effects to duplicate)."""
    counts = {p: 0 for p in fn.params}
    _count_uses(fn.body[0].value, counts)
    for param, arg in zip(fn.params, args):
        if counts[param] > 1 and not isinstance(arg, (ast.Var, ast.Num)):
            return False
    return True


def collect_calls(node, names: set) -> None:
    """Accumulate every function name called anywhere under ``node``."""
    if isinstance(node, (tuple, list)):
        for item in node:
            collect_calls(item, names)
    elif isinstance(node, ast.Call):
        names.add(node.name)
        for arg in node.args:
            collect_calls(arg, names)
    elif isinstance(node, ast.Binary):
        collect_calls(node.left, names)
        collect_calls(node.right, names)
    elif isinstance(node, ast.Unary):
        collect_calls(node.operand, names)
    elif isinstance(node, ast.Index):
        collect_calls(node.index, names)
    elif isinstance(node, ast.Assign):
        collect_calls(node.value, names)
    elif isinstance(node, ast.AssignIndex):
        collect_calls(node.index, names)
        collect_calls(node.value, names)
    elif isinstance(node, ast.If):
        collect_calls(node.cond, names)
        collect_calls(node.then, names)
        collect_calls(node.otherwise, names)
    elif isinstance(node, ast.While):
        collect_calls(node.cond, names)
        collect_calls(node.body, names)
    elif isinstance(node, ast.Return) and node.value is not None:
        collect_calls(node.value, names)
    elif isinstance(node, (ast.Print, ast.ExprStmt)):
        collect_calls(node.value, names)


def _count_uses(expr, counts) -> None:
    if isinstance(expr, ast.Var) and expr.name in counts:
        counts[expr.name] += 1
    elif isinstance(expr, ast.Binary):
        _count_uses(expr.left, counts)
        _count_uses(expr.right, counts)
    elif isinstance(expr, ast.Unary):
        _count_uses(expr.operand, counts)
    elif isinstance(expr, ast.Index):
        _count_uses(expr.index, counts)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            _count_uses(arg, counts)


# -- the expansion engine ------------------------------------------------------


def _inline_in(stmts, inlinable, current: str, counters):
    return tuple(_inline_stmt(s, inlinable, current, counters) for s in stmts)


def _inline_stmt(stmt, inlinable, current, counters):
    sub = lambda e: _inline_expr(e, inlinable, current, counters)  # noqa: E731
    if isinstance(stmt, ast.Assign):
        return replace(stmt, value=sub(stmt.value))
    if isinstance(stmt, ast.AssignIndex):
        return replace(stmt, index=sub(stmt.index), value=sub(stmt.value))
    if isinstance(stmt, ast.If):
        return replace(
            stmt,
            cond=sub(stmt.cond),
            then=_inline_in(stmt.then, inlinable, current, counters),
            otherwise=_inline_in(stmt.otherwise, inlinable, current, counters),
        )
    if isinstance(stmt, ast.While):
        return replace(
            stmt,
            cond=sub(stmt.cond),
            body=_inline_in(stmt.body, inlinable, current, counters),
        )
    if isinstance(stmt, ast.Return):
        return replace(
            stmt, value=sub(stmt.value) if stmt.value is not None else None
        )
    if isinstance(stmt, ast.Print):
        return replace(stmt, value=sub(stmt.value))
    if isinstance(stmt, ast.ExprStmt):
        return replace(stmt, value=sub(stmt.value))
    return stmt


def _inline_expr(expr, inlinable, current, counters):
    sub = lambda e: _inline_expr(e, inlinable, current, counters)  # noqa: E731
    if isinstance(expr, ast.Call):
        args = tuple(sub(a) for a in expr.args)
        target = inlinable.get(expr.name)
        if (
            target is not None
            and expr.name != current
            and _safe_to_substitute(target, args)
        ):
            counters["sites_expanded"] += 1
            body_expr = target.body[0].value
            mapping = dict(zip(target.params, args))
            return _substitute(body_expr, mapping)
        return replace(expr, args=args)
    if isinstance(expr, ast.Binary):
        return replace(expr, left=sub(expr.left), right=sub(expr.right))
    if isinstance(expr, ast.Unary):
        return replace(expr, operand=sub(expr.operand))
    if isinstance(expr, ast.Index):
        return replace(expr, index=sub(expr.index))
    return expr


def _substitute(expr, mapping):
    if isinstance(expr, ast.Var) and expr.name in mapping:
        return mapping[expr.name]
    if isinstance(expr, ast.Binary):
        return replace(
            expr,
            left=_substitute(expr.left, mapping),
            right=_substitute(expr.right, mapping),
        )
    if isinstance(expr, ast.Unary):
        return replace(expr, operand=_substitute(expr.operand, mapping))
    if isinstance(expr, ast.Index):
        return replace(expr, index=_substitute(expr.index, mapping))
    if isinstance(expr, ast.Call):
        return replace(
            expr, args=tuple(_substitute(a, mapping) for a in expr.args)
        )
    return expr

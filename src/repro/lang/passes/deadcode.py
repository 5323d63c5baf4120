"""Dead-code elimination: prune what constant folding proved dead.

Runs after :class:`~repro.lang.passes.fold.ConstFoldPass` and removes

* ``if (constant)`` — replaced by the taken arm,
* ``while (0)`` — removed entirely,
* statements after an unconditional ``return``,
* effect-free expression statements (a bare ``x;`` or ``42;``).

Profile hints on surviving branches are preserved untouched; hints on
*pruned* branches vanish with the branch, which is exactly right — the
branch no longer exists to lay out.
"""

from __future__ import annotations

from dataclasses import replace

from repro.lang import ast
from repro.lang.passes.fold import replace_program
from repro.trace import Stage


class DeadCodePass(Stage):
    """Prune branches, loops, and statements that can never run."""

    name = "dead-code"
    requires = ("folded",)
    provides = ("pruned",)

    def run(self, state, counters):
        self.counters = counters
        functions = []
        for fn in state.program.functions:
            body = self._block(fn.body)
            functions.append(fn if body is fn.body else replace(fn, body=body))
        state.program = replace_program(state.program, functions)

    def _block(self, stmts) -> tuple:
        """:meth:`_stmts` as a tuple; ``stmts`` itself when nothing changed."""
        out = self._stmts(stmts)
        if len(out) == len(stmts) and all(
            new is old for new, old in zip(out, stmts)
        ):
            return stmts
        return tuple(out)

    def _stmts(self, stmts) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        for pos, stmt in enumerate(stmts):
            pruned = self._stmt(stmt)
            out.extend(pruned)
            if pruned and isinstance(pruned[-1], ast.Return):
                dead = len(stmts) - pos - 1
                if dead:
                    self.counters["dead_statements"] += dead
                break  # §: code after return is unreachable
        return out

    def _stmt(self, stmt: ast.Stmt) -> list[ast.Stmt]:
        if isinstance(stmt, ast.If):
            then = self._block(stmt.then)
            otherwise = self._block(stmt.otherwise)
            if isinstance(stmt.cond, ast.Num):
                self.counters["pruned_branches"] += 1
                return list(then if stmt.cond.value != 0 else otherwise)
            if then is stmt.then and otherwise is stmt.otherwise:
                return [stmt]
            return [replace(stmt, then=then, otherwise=otherwise)]
        if isinstance(stmt, ast.While):
            if isinstance(stmt.cond, ast.Num) and stmt.cond.value == 0:
                self.counters["removed_loops"] += 1
                return []  # while(0): gone
            body = self._block(stmt.body)
            if body is stmt.body:
                return [stmt]
            return [replace(stmt, body=body)]
        if isinstance(stmt, ast.ExprStmt) and isinstance(
            stmt.value, (ast.Num, ast.Var)
        ):
            self.counters["dead_statements"] += 1
            return []  # effect-free statement: gone
        return [stmt]

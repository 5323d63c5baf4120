"""Tests for the Rel optimizer (folding, pruning, §6 inlining)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze
from repro.lang import compile_source, compile_to_asm
from repro.lang.programs import REL_PROGRAMS
from repro.machine import CPU, Monitor, MonitorConfig


def run(source, **kw):
    cpu = CPU(compile_source(source, **kw))
    cpu.run()
    return cpu


class TestConstantFolding:
    def test_expressions_fold_to_pushes(self):
        asm = str(compile_to_asm(
            "func main() { print 2 + 3 * 4; }", optimize_level=1
        ))
        assert "PUSH 14" in asm
        assert "MUL" not in asm

    def test_identities(self):
        asm = str(compile_to_asm(
            "func main() { x = 5; print x + 0; print 1 * x; }",
            optimize_level=1,
        ))
        assert "ADD" not in asm
        assert "MUL" not in asm

    def test_division_by_zero_not_folded(self):
        # the fault belongs to run time, not compile time
        from repro.errors import MachineError

        with pytest.raises(MachineError, match="division"):
            run("func main() { print 1 / 0; }", optimize_level=1)

    def test_constant_if_pruned(self):
        asm = str(compile_to_asm(
            "func f() { return 1; }\n"
            "func main() { if (0) { f(); } print 9; }",
            optimize_level=1,
        ))
        assert "CALL f" not in asm

    def test_while_zero_removed(self):
        asm = str(compile_to_asm(
            "func main() { while (0) { burn 100; } print 1; }",
            optimize_level=1,
        ))
        assert "WORK" not in asm

    def test_dead_code_after_return_removed(self):
        asm = str(compile_to_asm(
            "func f() { return 1; burn 999; }\nfunc main() { print f(); }",
            optimize_level=1,
        ))
        assert "WORK 999" not in asm

    def test_effect_free_statement_removed(self):
        asm0 = str(compile_to_asm("func main() { 42; print 1; }"))
        asm1 = str(
            compile_to_asm("func main() { 42; print 1; }", optimize_level=1)
        )
        assert "PUSH 42" in asm0
        assert "PUSH 42" not in asm1


class TestInlining:
    SRC = """
func square(x) { return x * x; }
func main() {
    i = 0;
    total = 0;
    while (i < 30) { total = total + square(i); i = i + 1; }
    print total;
}
"""

    def test_inline_removes_the_call_and_the_routine(self):
        asm = str(compile_to_asm(self.SRC, optimize_level=2))
        assert "CALL square" not in asm
        assert ".func square" not in asm

    def test_inline_preserves_behaviour(self):
        assert (
            run(self.SRC).output
            == run(self.SRC, optimize_level=2).output
            == [sum(i * i for i in range(30))]
        )

    def test_inline_saves_call_overhead(self):
        # §6: "the overhead of a function call and return can be saved
        # for each datum".
        plain = run(self.SRC).cycles
        inlined = run(self.SRC, optimize_level=2).cycles
        assert inlined < plain

    def test_inline_makes_profile_more_granular(self):
        # §6's drawback, measured: after inlining, 'square' vanishes
        # from the profile and its cost hides inside main.
        def profiled(level):
            exe = compile_source(self.SRC, profile=True, optimize_level=level)
            mon = Monitor(
                MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10)
            )
            cpu = CPU(exe, mon)
            cpu.run()
            return analyze(mon.mcleanup(), exe.symbol_table())

        before = profiled(0)
        after = profiled(2)
        assert before.entry("square") is not None
        assert after.entry("square") is None
        # square's cost now hides inside main's *self* time: main's
        # self share of the program jumps (it was ~57%, becomes 100%).
        before_share = before.entry("main").self_seconds / before.total_seconds
        after_share = after.entry("main").self_seconds / after.total_seconds
        assert after_share > before_share + 0.2

    def test_param_used_twice_still_correct(self):
        # square uses x twice: inlining must not duplicate an
        # effectful argument, so such routines are left alone when the
        # argument is a call.
        src = """
func square(x) { return x * x; }
var hits;
func noisy() { hits = hits + 1; return 3; }
func main() { print square(noisy()); print hits; }
"""
        cpu = run(src, optimize_level=2)
        assert cpu.output == [9, 1]  # noisy ran exactly once

    def test_recursive_routine_never_inlined(self):
        src = """
func fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
func main() { print fact(6); }
"""
        assert run(src, optimize_level=2).output == [720]


class TestOptimizationSoundness:
    @pytest.mark.parametrize("name", sorted(REL_PROGRAMS))
    @pytest.mark.parametrize("level", [1, 2])
    def test_canned_programs_unchanged(self, name, level):
        src = REL_PROGRAMS[name]()
        assert run(src).output == run(src, optimize_level=level).output

    @pytest.mark.parametrize("name", sorted(REL_PROGRAMS))
    def test_optimized_never_slower(self, name):
        src = REL_PROGRAMS[name]()
        assert run(src, optimize_level=2).cycles <= run(src).cycles


@settings(max_examples=60)
@given(st.data())
def test_folding_matches_evaluation_property(data):
    """Property: for random constant expressions, -O1 folds to exactly
    the value -O0 computes."""

    def build(depth):
        if depth >= 3 or data.draw(st.booleans()):
            return str(data.draw(st.integers(0, 30)))
        op = data.draw(st.sampled_from(["+", "-", "*"]))
        return f"({build(depth + 1)} {op} {build(depth + 1)})"

    text = build(0)
    src = f"func main() {{ print {text}; }}"
    assert run(src).output == run(src, optimize_level=1).output
    asm = str(compile_to_asm(src, optimize_level=1))
    body_ops = [
        l.strip().split()[0]
        for l in asm.splitlines()
        if l.strip() and not l.startswith((".", "_"))
    ]
    assert body_ops.count("ADD") + body_ops.count("MUL") == 0

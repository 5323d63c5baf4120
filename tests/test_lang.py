"""Tests for the Rel language compiler (lexer, parser, codegen)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze
from repro.errors import LangError
from repro.lang import compile_source, compile_to_asm
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.machine import CPU, run_profiled


def run_rel(source, **kw):
    cpu = CPU(compile_source(source, **kw))
    cpu.run()
    return cpu


def eval_expr(expr: str) -> int:
    """Value printed by ``print <expr>;`` inside main."""
    cpu = run_rel(f"func main() {{ print {expr}; }}")
    return cpu.output[0]


class TestLexer:
    def test_token_kinds(self):
        toks = tokenize("func f(x) { return x1 + 42; } // comment")
        kinds = [(t.kind, t.value) for t in toks]
        assert ("kw", "func") in kinds
        assert ("name", "x1") in kinds
        assert ("num", 42) in kinds
        assert kinds[-1] == ("eof", None)

    def test_two_char_operators(self):
        toks = tokenize("a<=b==c&&d")
        ops = [t.value for t in toks if t.kind == "op"]
        assert ops == ["<=", "==", "&&"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:3]] == [1, 2, 3]

    def test_bad_character(self):
        with pytest.raises(LangError, match="line 2"):
            tokenize("ok\n@")

    def test_non_decimal_digit_is_unexpected(self):
        # '²' is a digit to str.isdigit() but int() refuses it: numbers
        # are decimal digits only.
        with pytest.raises(LangError, match="unexpected character '²'") as exc:
            tokenize("x = ²;")
        assert exc.value.line == 1

    def test_other_decimal_scripts_are_numbers(self):
        toks = tokenize("x = ٣;")
        assert [(t.kind, t.value) for t in toks[1:3]] == [("op", "="), ("num", 3)]

    def test_identifier_character_classes(self):
        toks = tokenize("_é1 a²\xa0b // trailing")
        assert [(t.kind, t.value) for t in toks] == [
            ("name", "_é1"), ("name", "a²"), ("name", "b"), ("eof", None),
        ]


def oracle_tokenize(source: str):
    """The per-character tokenizer the regex lexer replaced, verbatim.

    It defines the token stream; the only behaviour allowed to change
    is its ``ValueError`` on non-decimal digits (``int('²')``).
    """
    from repro.lang.lexer import KEYWORDS

    operators = (
        "==", "!=", "<=", ">=", "&&", "||",
        "+", "-", "*", "/", "%", "<", ">", "=", "!",
        "(", ")", "{", "}", "[", "]", ",", ";",
    )
    tokens = []
    line = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("num", int(source[i:j]), line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "name"
            tokens.append((kind, word, line))
            i = j
            continue
        for op in operators:
            if source.startswith(op, i):
                tokens.append(("op", op, line))
                i += len(op)
                break
        else:
            raise LangError(f"unexpected character {ch!r}", line)
    tokens.append(("eof", None, line))
    return tokens


_LEX_PIECES = st.one_of(
    st.text(
        alphabet=st.sampled_from(
            [chr(c) for c in range(32, 127)] + list("²½٣é\xa0\r\n\t ")
        ),
        max_size=12,
    ),
    st.sampled_from(
        ["//", "// note", "\r\n", "==", "&&", "||", "<=", "func", "x_1",
         "42", "٣٣", "1²", "a²", "½x"]
    ),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_LEX_PIECES, max_size=12).map("".join),
    st.sampled_from(["", "//", "// tail comment", "\r\n", "\n// c"]),
)
def test_lexer_matches_per_character_oracle(body, tail):
    source = body + tail
    try:
        expected = oracle_tokenize(source)
    except LangError as exc:
        with pytest.raises(LangError) as got:
            tokenize(source)
        assert str(got.value) == str(exc) and got.value.line == exc.line
        return
    except ValueError:
        # the oracle's int('²') crash is now a LangError on that digit
        with pytest.raises(LangError, match="unexpected character") as got:
            tokenize(source)
        ch = str(got.value).split("unexpected character ")[1][1]
        assert ch.isdigit() and not ch.isdecimal()
        return
    assert [(t.kind, t.value, t.line) for t in tokenize(source)] == expected


class TestExpressions:
    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("1 + 2 * 3", 7),
            ("(1 + 2) * 3", 9),
            ("10 - 3 - 2", 5),          # left associative
            ("17 / 5", 3),
            ("-17 / 5", -3),            # C-style truncation
            ("17 % 5", 2),
            ("-(3 + 4)", -7),
            ("1 < 2", 1),
            ("2 <= 1", 0),
            ("3 == 3", 1),
            ("3 != 3", 0),
            ("!0", 1),
            ("!5", 0),
            ("1 && 2", 1),
            ("1 && 0", 0),
            ("0 || 0", 0),
            ("0 || 7", 1),
            ("1 + 2 < 4", 1),           # cmp binds loosest of arithmetics
        ],
    )
    def test_evaluation(self, expr, expected):
        assert eval_expr(expr) == expected

    def test_short_circuit_skips_side_effects(self):
        src = """
var hits;
func bump() { hits = hits + 1; return 1; }
func main() {
    x = 0 && bump();
    y = 1 || bump();
    print hits;
    print x + y;
}
"""
        cpu = run_rel(src)
        assert cpu.output == [0, 1]  # bump never ran


class TestStatements:
    def test_while_loop(self):
        src = """
func main() {
    total = 0;
    i = 1;
    while (i <= 10) { total = total + i; i = i + 1; }
    print total;
}
"""
        assert run_rel(src).output == [55]

    def test_if_elif_else(self):
        src = """
func classify(n) {
    if (n < 0) { return -1; }
    else if (n == 0) { return 0; }
    else { return 1; }
}
func main() {
    print classify(-5);
    print classify(0);
    print classify(9);
}
"""
        assert run_rel(src).output == [-1, 0, 1]

    def test_locals_independent_of_globals(self):
        src = """
var g;
func set_local() { x = 99; return x; }
func main() {
    g = 5;
    set_local();
    print g;
}
"""
        assert run_rel(src).output == [5]

    def test_global_assignment_targets_global(self):
        src = """
var g;
func bump() { g = g + 1; return g; }
func main() { bump(); bump(); print g; }
"""
        assert run_rel(src).output == [2]

    def test_array_round_trip(self):
        src = """
array a[5];
func main() {
    i = 0;
    while (i < 5) { a[i] = i * i; i = i + 1; }
    print a[0] + a[1] + a[2] + a[3] + a[4];
}
"""
        assert run_rel(src).output == [30]

    def test_return_without_value_is_zero(self):
        src = "func f() { return; }\nfunc main() { print f(); }"
        assert run_rel(src).output == [0]

    def test_falling_off_end_returns_zero(self):
        src = "func f() { burn 3; }\nfunc main() { print f(); }"
        assert run_rel(src).output == [0]

    def test_burn_costs_cycles(self):
        cheap = run_rel("func main() { burn 1; }").cycles
        dear = run_rel("func main() { burn 500; }").cycles
        assert dear - cheap == 499

    def test_expression_statement_discards(self):
        src = "func f() { return 7; }\nfunc main() { f(); print 1; }"
        assert run_rel(src).output == [1]

    def test_recursion(self):
        src = """
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() { print fib(12); }
"""
        assert run_rel(src).output == [144]

    def test_mutual_recursion(self):
        src = """
func even(n) { if (n == 0) { return 1; } return odd(n - 1); }
func odd(n) { if (n == 0) { return 0; } return even(n - 1); }
func main() { print even(10); print even(7); }
"""
        assert run_rel(src).output == [1, 0]


class TestErrors:
    @pytest.mark.parametrize(
        "source, message",
        [
            ("func main() { print x; }", "undefined name"),
            ("func main() { print f(); }", "unknown function"),
            ("func f(a) { return a; }\nfunc main() { print f(); }",
             "takes 1 argument"),
            ("var v;\nfunc main() { print v[0]; }", "not an array"),
            ("array a[3];\nfunc main() { print a; }", "is an array"),
            ("func f() { return 0; }", "no 'main'"),
            ("func main() { }\nfunc main() { }", "duplicate top-level"),
            ("var x;\nfunc x() { }", "duplicate top-level"),
            ("func f(a, a) { }\nfunc main() { }", "duplicate parameter"),
            ("array z[0];\nfunc main() { }", "size >= 1"),
            ("func main() { if 1 { } }", "expected"),
            ("blah;", "expected a declaration"),
        ],
    )
    def test_rejections(self, source, message):
        with pytest.raises(LangError, match=message):
            compile_source(source)

    @pytest.mark.parametrize(
        "expr, found",
        [
            ("1 < 2 < 3", "'<'"),         # a comparison does not chain
            ("1 == 2 != 3", "'!='"),
            ("0 && 1 < 2 >= 3", "'>='"),  # not even under a looser operator
            ("(1 < 2) < 3 + 1 < 4", "'<'"),
        ],
    )
    def test_comparisons_do_not_chain(self, expr, found):
        with pytest.raises(LangError, match=f"expected ';', found {found}"):
            parse(f"func main() {{ print {expr}; }}")


class TestParserTrees:
    """Precedence and associativity, read off the tree itself."""

    @staticmethod
    def tree(expr: str):
        def shape(node):
            if hasattr(node, "left"):
                return (shape(node.left), node.op, shape(node.right))
            if hasattr(node, "operand"):
                return (node.op, shape(node.operand))
            return node.value if hasattr(node, "value") else node.name

        stmt = parse(f"func main() {{ print {expr}; }}").functions[0].body[0]
        return shape(stmt.value)

    @pytest.mark.parametrize(
        "expr, shape",
        [
            ("1 - 2 - 3", ((1, "-", 2), "-", 3)),
            ("1 || 2 && 3", (1, "||", (2, "&&", 3))),
            ("1 && 2 || 3 && 4", ((1, "&&", 2), "||", (3, "&&", 4))),
            ("a < b + c * d", ("a", "<", ("b", "+", ("c", "*", "d")))),
            ("a * b + c < d == 0", None),  # rejected: == after <
            ("-a * !b % c", ((("-", "a"), "*", ("!", "b")), "%", "c")),
            ("a == b && c != d", (("a", "==", "b"), "&&", ("c", "!=", "d"))),
            ("(a < b) == c", (("a", "<", "b"), "==", "c")),
        ],
    )
    def test_shapes(self, expr, shape):
        if shape is None:
            with pytest.raises(LangError, match="expected ';'"):
                self.tree(expr)
        else:
            assert self.tree(expr) == shape

    def test_lines_come_from_operator_tokens(self):
        program = parse("func main() {\n print 1\n +\n 2;\n}")
        stmt = program.functions[0].body[0]
        assert (stmt.line, stmt.value.line) == (2, 3)


class TestProfilingIntegration:
    SRC = """
func helper(n) { burn 40; return n; }
func work() {
    i = 0;
    while (i < 25) { helper(i); i = i + 1; }
    return i;
}
func main() { work(); }
"""

    def test_dash_pg_needs_no_source_changes(self):
        plain = compile_source(self.SRC, name="w")
        profiled = compile_source(self.SRC, name="w", profile=True)
        assert not plain.profiled
        assert profiled.profiled
        a, b = CPU(plain), CPU(profiled)
        a.run()
        b.run()
        assert a.output == b.output

    def test_full_pipeline_on_compiled_program(self):
        asm = compile_to_asm(self.SRC)
        cpu, data = run_profiled(asm, name="rel")
        exe = compile_source(self.SRC, name="rel", profile=True)
        profile = analyze(data, exe.symbol_table())
        helper = profile.entry("helper")
        assert helper.ncalls == 25
        assert {p.name for p in helper.parents} == {"work"}
        assert profile.entry("main").percent == pytest.approx(100.0, abs=0.5)

    def test_block_counting_compiled_program(self):
        from repro.machine import block_counts

        exe = compile_source(self.SRC, name="w", count_blocks=True)
        cpu = CPU(exe)
        cpu.run()
        counts = {c.name: c.count for c in block_counts(cpu)}
        assert counts["helper.entry"] == 25


@settings(max_examples=80)
@given(st.data())
def test_expression_oracle_property(data):
    """Property: random Rel expressions agree with Python's arithmetic
    (with C-style division)."""

    def build(depth):
        if depth >= 3 or data.draw(st.booleans()):
            v = data.draw(st.integers(-50, 50))
            return (str(v) if v >= 0 else f"(0 - {abs(v)})"), v
        op = data.draw(st.sampled_from(["+", "-", "*"]))
        ltext, lval = build(depth + 1)
        rtext, rval = build(depth + 1)
        value = {"+": lval + rval, "-": lval - rval, "*": lval * rval}[op]
        return f"({ltext} {op} {rtext})", value

    text, expected = build(0)
    assert eval_expr(text) == expected

"""Recursive-descent parser for Rel.

Grammar (EBNF)::

    program   := (global | arraydecl | function)*
    global    := 'var' name ';'
    arraydecl := 'array' name '[' num ']' ';'
    function  := 'func' name '(' [name (',' name)*] ')' block
    block     := '{' stmt* '}'
    stmt      := name '=' expr ';'
               | name '[' expr ']' '=' expr ';'
               | 'if' '(' expr ')' block ['else' block]
               | 'while' '(' expr ')' block
               | 'return' [expr] ';'
               | 'print' expr ';'
               | 'burn' num ';'
               | expr ';'
    expr      := or
    or        := and ('||' and)*
    and       := cmp ('&&' cmp)*
    cmp       := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
    add       := mul (('+'|'-') mul)*
    mul       := unary (('*'|'/'|'%') unary)*
    unary     := ('-'|'!') unary | primary
    primary   := num | name '(' args ')' | name '[' expr ']' | name
               | '(' expr ')'

The five binary levels are parsed by one precedence-climbing loop
(:meth:`_Parser.parse_expr`) driven by :data:`BINARY_PRECEDENCE`; it
builds exactly the trees the layered grammar above describes.
"""

from __future__ import annotations

from repro.errors import LangError
from repro.lang import ast
from repro.lang.lexer import lex

#: Binding strength of each binary operator (higher binds tighter),
#: one level per grammar rule from ``or`` down to ``mul``.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}

#: The comparison level, which does not chain: ``a < b < c`` is an error.
_CMP = 3
_TIGHTEST = max(BINARY_PRECEDENCE.values())


def parse(source: str) -> ast.Program:
    """Parse Rel source text into a :class:`~repro.lang.ast.Program`."""
    return _Parser(lex(source)).parse_program()


class _Parser:
    """Reads :func:`~repro.lang.lexer.lex` triples ``(kind, value, line)``.

    An operator is recognised by its value alone: no other kind of
    token can carry punctuation (names and keywords are words, numbers
    are ints, ``eof`` is None).
    """

    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ---------------------------------------------------------

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok_kind, tok_value, _ = self.tokens[self.pos]
        return tok_kind == kind and (value is None or tok_value == value)

    def expect(self, kind: str, value=None) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise LangError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        self.pos += 1  # never at eof: no caller expects it
        return tok

    # -- top level ----------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        seen: set[str] = set()
        while not self.at("eof"):
            _, value, line = self.tokens[self.pos]
            if self.at("kw", "var"):
                self.advance()
                name = self.expect("name")[1]
                self.expect("op", ";")
                self._declare(program, seen, name, line)
                program.globals_.append(name)
            elif self.at("kw", "array"):
                self.advance()
                name = self.expect("name")[1]
                self.expect("op", "[")
                size = self.expect("num")[1]
                self.expect("op", "]")
                self.expect("op", ";")
                if size < 1:
                    raise LangError(f"array {name!r} needs size >= 1", line)
                self._declare(program, seen, name, line)
                program.arrays[name] = size
            elif self.at("kw", "func"):
                fn = self.parse_function()
                self._declare(program, seen, fn.name, fn.line)
                program.functions.append(fn)
            else:
                raise LangError(
                    f"expected a declaration, found {value!r}", line
                )
        if not any(f.name == "main" for f in program.functions):
            raise LangError("program has no 'main' function")
        return program

    @staticmethod
    def _declare(program, seen: set[str], name: str, line: int) -> None:
        if name in seen:
            raise LangError(f"duplicate top-level name {name!r}", line)
        seen.add(name)

    def parse_function(self) -> ast.Function:
        line = self.expect("kw", "func")[2]
        name = self.expect("name")[1]
        self.expect("op", "(")
        params: list[str] = []
        if not self.at("op", ")"):
            params.append(self.expect("name")[1])
            while self.at("op", ","):
                self.advance()
                params.append(self.expect("name")[1])
        if len(set(params)) != len(params):
            raise LangError(f"duplicate parameter in {name!r}", line)
        self.expect("op", ")")
        body = self.parse_block()
        return ast.Function(name, tuple(params), body, line)

    def parse_block(self) -> tuple[ast.Stmt, ...]:
        self.expect("op", "{")
        tokens = self.tokens
        stmts: list[ast.Stmt] = []
        while tokens[self.pos][1] != "}":
            stmts.append(self.parse_statement())
        self.pos += 1  # '}'
        return tuple(stmts)

    # -- statements ------------------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        tokens = self.tokens
        kind, word, line = tokens[self.pos]
        if kind == "kw":
            if word == "if":
                return self.parse_if()
            if word == "while":
                self.pos += 1
                self.expect("op", "(")
                cond = self.parse_expr()
                self.expect("op", ")")
                body = self.parse_block()
                return ast.While(cond, body, line)
            if word == "return":
                self.pos += 1
                if tokens[self.pos][1] == ";":
                    self.pos += 1
                    return ast.Return(None, line)
                value = self.parse_expr()
                self.expect("op", ";")
                return ast.Return(value, line)
            if word == "print":
                self.pos += 1
                value = self.parse_expr()
                self.expect("op", ";")
                return ast.Print(value, line)
            if word == "burn":
                self.pos += 1
                cycles = self.expect("num")[1]
                self.expect("op", ";")
                return ast.Burn(cycles, line)
        elif kind == "name":
            # could be assignment, indexed assignment, or expression
            nxt = tokens[self.pos + 1][1]
            if nxt == "=":
                self.pos += 2  # name '='
                value = self.parse_expr()
                self.expect("op", ";")
                return ast.Assign(word, value, line)
            if nxt == "[" and self._is_indexed_assignment():
                self.pos += 2  # name '['
                index = self.parse_expr()
                self.expect("op", "]")
                self.expect("op", "=")
                value = self.parse_expr()
                self.expect("op", ";")
                return ast.AssignIndex(word, index, value, line)
        value = self.parse_expr()
        self.expect("op", ";")
        return ast.ExprStmt(value, line)

    def _is_indexed_assignment(self) -> bool:
        """Lookahead: does ``name[ … ]`` continue with ``=``?"""
        tokens = self.tokens
        depth = 0
        for i in range(self.pos + 1, len(tokens)):  # from '['
            kind, value, _ = tokens[i]
            if value == "[":
                depth += 1
            elif value == "]":
                depth -= 1
                if depth == 0:
                    return i + 1 < len(tokens) and tokens[i + 1][1] == "="
            elif kind == "eof":
                break
        return False

    def parse_if(self) -> ast.If:
        line = self.expect("kw", "if")[2]
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self.parse_block()
        otherwise: tuple[ast.Stmt, ...] = ()
        if self.at("kw", "else"):
            self.advance()
            if self.at("kw", "if"):
                otherwise = (self.parse_if(),)
            else:
                otherwise = self.parse_block()
        return ast.If(cond, then, otherwise, line)

    # -- expressions ---------------------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence climbing over the ``or`` … ``mul`` levels.

        After an operator of level ``p`` the next one may not bind
        tighter than ``p`` (its operand already took those), and after
        a comparison not even as tight: that is the layered grammar's
        left associativity and its one-comparison-per-level rule.
        """
        tokens = self.tokens
        node = self.parse_unary()
        ceiling = _TIGHTEST
        while True:
            _, op, line = tokens[self.pos]
            prec = BINARY_PRECEDENCE.get(op)
            if prec is None or prec < min_prec or prec > ceiling:
                return node
            self.pos += 1
            node = ast.Binary(op, node, self.parse_expr(prec + 1), line)
            ceiling = prec - 1 if prec == _CMP else prec

    def parse_unary(self) -> ast.Expr:
        """``unary`` and ``primary`` in one frame (the hottest call)."""
        tokens = self.tokens
        kind, value, line = tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return ast.Num(value, line)
        if kind == "name":
            nxt = tokens[self.pos][1]
            if nxt == "(":
                self.pos += 1
                args: list[ast.Expr] = []
                if tokens[self.pos][1] != ")":
                    args.append(self.parse_expr())
                    while tokens[self.pos][1] == ",":
                        self.pos += 1
                        args.append(self.parse_expr())
                self.expect("op", ")")
                return ast.Call(value, tuple(args), line)
            if nxt == "[":
                self.pos += 1
                index = self.parse_expr()
                self.expect("op", "]")
                return ast.Index(value, index, line)
            return ast.Var(value, line)
        if value == "-" or value == "!":
            return ast.Unary(value, self.parse_unary(), line)
        if value == "(":
            node = self.parse_expr()
            self.expect("op", ")")
            return node
        raise LangError(f"expected an expression, found {value!r}", line)

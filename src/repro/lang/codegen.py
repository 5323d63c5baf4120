"""Code generation: Rel AST → VM assembly listing.

A tree-walking generator with the classic stack discipline: every
expression leaves exactly one value on the operand stack; every
statement leaves the stack balanced.  The output is an
:class:`~repro.machine.assembler.Asm` listing — per routine, label
names and ``(Op, operand)`` items — handed to
:mod:`repro.machine.assembler` as is, never printed and parsed again;
``str()`` of it is the assembly text.  The profiling option (MCOUNT
prologues) and block counting arrive in the assembler, not here — the
compiler "requires no planning on part of a programmer".

Name resolution is C-flavoured:

* parameters and names assigned in a function are locals (slot
  numbered; locals read before their first assignment are zero, like
  the VM's frames);
* a name declared ``var`` or ``array`` at top level is a global,
  *unless* shadowed by a local assignment... which cannot happen: a
  name assigned in a function that is also a declared global writes
  the global (there is no local declaration syntax, so globals win).

Two things feed the PGO loop from here:

* profile-feedback **hints** on the tree (``If.likely``,
  ``While.rotate``) select alternative lowerings with identical
  semantics and instruction counts but cheaper measured-hot paths;
* :func:`generate_mapped` additionally returns a :class:`SourceMap` —
  per-function call-site instruction indexes and per-branch
  instruction spans — which is how a gmon file's addresses find their
  way back onto AST nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LangError
from repro.lang import ast
from repro.machine.assembler import Asm, Routine
from repro.machine.isa import Op

# Opcodes as module constants: a global name read is an order of
# magnitude cheaper than an ``Op.X`` attribute read, once per emitted
# instruction.
ADD, CALL, EQ, GLOAD, GLOADI = Op.ADD, Op.CALL, Op.EQ, Op.GLOAD, Op.GLOADI
GSTORE, GSTOREI, JMP, JNZ, JZ = Op.GSTORE, Op.GSTOREI, Op.JMP, Op.JNZ, Op.JZ
LOAD, NEG, NOP, OUT, POP = Op.LOAD, Op.NEG, Op.NOP, Op.OUT, Op.POP
PUSH, RET, STORE, WORK = Op.PUSH, Op.RET, Op.STORE, Op.WORK

#: Arithmetic and comparison opcodes by source operator.
_BINOPS = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
    "==": Op.EQ, "!=": Op.NE, "<": Op.LT, "<=": Op.LE, ">": Op.GT,
    ">=": Op.GE,
}


class Layout:
    """Global segment layout and function signatures.

    ``program.functions`` order *is* text-segment order: the hot/cold
    layout pass permutes that list and nothing else, so the code
    generator stays a faithful, order-preserving lowering.
    """

    def __init__(self, program: ast.Program):
        self.scalar_slot: dict[str, int] = {}
        self.array_base: dict[str, int] = {}
        offset = 0
        for name in program.globals_:
            self.scalar_slot[name] = offset
            offset += 1
        for name, size in program.arrays.items():
            self.array_base[name] = offset
            offset += size
        self.num_globals = offset
        self.arity = {f.name: len(f.params) for f in program.functions}


# -- the source map ------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A half-open range of *function-local* instruction indexes."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class CallSite:
    """One emitted CALL: its callee and local instruction index."""

    callee: str
    index: int


@dataclass(frozen=True)
class BranchSpans:
    """Where one If/While landed in its function's instructions.

    ``ordinal`` is the branch's position in the canonical pre-order
    walk (:func:`repro.lang.ast.iter_branch_nodes`) — *not* emission
    order, so a hint that swaps arm layout does not renumber anything.
    ``cond`` includes the dispatch jump; for an ``if``, ``then`` /
    ``otherwise`` cover the arms (including a join jump emitted inside
    the arm); for a ``while``, ``then`` covers the loop body and
    ``otherwise`` is empty.
    """

    kind: str  # "if" | "while"
    ordinal: int
    line: int
    cond: Span
    then: Span
    otherwise: Span


@dataclass
class FunctionMap:
    """Source map for one function (indexes are pre-prologue local)."""

    name: str
    size: int = 0
    sites: list[CallSite] = field(default_factory=list)
    branches: list[BranchSpans] = field(default_factory=list)


@dataclass
class SourceMap:
    """Per-function maps, keyed by routine name."""

    functions: dict[str, FunctionMap] = field(default_factory=dict)


def _terminates(stmts) -> bool:
    """Whether control can never fall off the end of ``stmts``.

    Conservative: a trailing ``return``, or a trailing ``if``/``else``
    both of whose arms terminate.  Used to elide the unreachable code
    a naive lowering would emit after such a tail — the implicit
    ``return 0`` epilogue and the join jump of a returning arm — so
    compiled routines contain no blocks the checker's reachability
    pass (GP101) could flag.
    """
    if not stmts:
        return False
    last = stmts[-1]
    if isinstance(last, ast.Return):
        return True
    if isinstance(last, ast.If) and last.otherwise:
        return _terminates(last.then) and _terminates(last.otherwise)
    return False


def generate(program: ast.Program) -> Asm:
    """The whole program's assembly listing."""
    asm, _ = _generate(program, mapped=False)
    return asm


def generate_mapped(program: ast.Program) -> tuple[Asm, SourceMap]:
    """The assembly listing plus the :class:`SourceMap` for feedback
    mapping.

    The listing equals :func:`generate`'s — the map is recorded on the
    side, never woven into the output.
    """
    asm, smap = _generate(program, mapped=True)
    return asm, smap


def _generate(program: ast.Program, mapped: bool) -> tuple[Asm, SourceMap]:
    layout = Layout(program)
    smap = SourceMap()
    asm = Asm(layout.num_globals)
    # Equal items share one tuple.  Callers keep the listing alive
    # beside later work, and a few thousand distinct tuples cost every
    # garbage collection pass far less than one per instruction.
    items: dict[tuple, tuple] = {}
    for fn in program.functions:
        gen = _FunctionCodegen(layout, fn, items, record=mapped)
        asm.routines.append(gen.generate())
        if mapped:
            smap.functions[fn.name] = gen.map
    return asm, smap


class _FunctionCodegen:
    def __init__(
        self,
        layout: Layout,
        fn: ast.Function,
        items: dict[tuple, tuple],
        record: bool = False,
    ):
        self.layout = layout
        self.fn = fn
        self.body: list = []  # label names and (Op, operand) items
        self.items = items  # each distinct item, by itself
        self.slots: dict[str, int] = {}
        self.labels = 0
        self.count = 0  # instructions emitted so far (local index)
        self.map = FunctionMap(fn.name) if record else None
        self._ordinals = (
            {
                id(node): i
                for i, node in enumerate(ast.iter_branch_nodes(fn.body))
            }
            if record
            else None
        )
        for param in fn.params:
            self.slots[param] = len(self.slots)
        self._collect_locals(fn.body)

    # -- helpers -------------------------------------------------------------------

    def emit(self, op: Op, operand: int | str | None = None) -> None:
        item = (op, operand)
        self.body.append(self.items.setdefault(item, item))
        self.count += 1

    def emit_label(self, label: str) -> None:
        self.body.append(label)

    def new_label(self, hint: str) -> str:
        self.labels += 1
        return f"_L{self.labels}_{hint}"

    def _collect_locals(self, stmts) -> None:
        """Pre-scan assignment targets so forward reads resolve."""
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                if stmt.name not in self.layout.scalar_slot:
                    self.slots.setdefault(stmt.name, len(self.slots))
            elif isinstance(stmt, ast.If):
                self._collect_locals(stmt.then)
                self._collect_locals(stmt.otherwise)
            elif isinstance(stmt, ast.While):
                self._collect_locals(stmt.body)

    def _record_branch(self, stmt, kind, cond, then, otherwise) -> None:
        if self.map is None:
            return
        self.map.branches.append(
            BranchSpans(
                kind,
                self._ordinals[id(stmt)],
                stmt.line,
                Span(*cond),
                Span(*then),
                Span(*otherwise),
            )
        )

    # -- entry point ----------------------------------------------------------------

    def generate(self) -> Routine:
        # prologue: pop arguments into their slots (last argument is on
        # top of the stack)
        for i in reversed(range(len(self.fn.params))):
            self.emit(STORE, i)
        for stmt in self.fn.body:
            self.statement(stmt)
        if not _terminates(self.fn.body):
            # implicit 'return 0' for the control paths that can fall
            # off the end; a body every path returns from gets no
            # unreachable epilogue (the checker's GP101 would flag it)
            self.emit(PUSH, 0)
            self.emit(RET)
        if self.map is not None:
            self.map.size = self.count
        return Routine(self.fn.name, body=self.body)

    # -- statements --------------------------------------------------------------------

    def statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.expression(stmt.value)
            if stmt.name in self.slots:
                self.emit(STORE, self.slots[stmt.name])
            elif stmt.name in self.layout.scalar_slot:
                self.emit(GSTORE, self.layout.scalar_slot[stmt.name])
            else:  # pragma: no cover - _collect_locals guarantees a slot
                raise LangError(f"cannot assign {stmt.name!r}", stmt.line)
        elif isinstance(stmt, ast.AssignIndex):
            base = self._array_base(stmt.array, stmt.line)
            self.expression(stmt.value)
            self.expression(stmt.index)
            if base:
                self.emit(PUSH, base)
                self.emit(ADD)
            self.emit(GSTOREI)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.expression(stmt.value)
            else:
                self.emit(PUSH, 0)
            self.emit(RET)
        elif isinstance(stmt, ast.Print):
            self.expression(stmt.value)
            self.emit(OUT)
        elif isinstance(stmt, ast.Burn):
            if stmt.cycles < 0:
                raise LangError("burn needs a non-negative count", stmt.line)
            self.emit(WORK, stmt.cycles)
        elif isinstance(stmt, ast.ExprStmt):
            self.expression(stmt.value)
            self.emit(POP)
        else:  # pragma: no cover - exhaustive
            raise LangError(f"unknown statement {stmt!r}")

    def _gen_if(self, stmt: ast.If) -> None:
        if stmt.likely == "then" and stmt.otherwise:
            # Profile-guided arm swap: the measured-likely then-arm
            # falls through (JNZ is the rare jump), the cold else-arm
            # pays the join jump.  Same instruction count as the
            # default form; the saved JMP moves to the cold path.
            then_label = self.new_label("then")
            end = self.new_label("endif")
            c0 = self.count
            self.expression(stmt.cond)
            self.emit(JNZ, then_label)
            c1 = self.count
            e0 = self.count
            for s in stmt.otherwise:
                self.statement(s)
            join = not _terminates(stmt.otherwise)
            if join:
                self.emit(JMP, end)
            e1 = self.count
            self.emit_label(then_label)
            t0 = self.count
            for s in stmt.then:
                self.statement(s)
            t1 = self.count
            if join:
                self.emit_label(end)
            self._record_branch(stmt, "if", (c0, c1), (t0, t1), (e0, e1))
            return
        otherwise = self.new_label("else")
        end = self.new_label("endif")
        c0 = self.count
        self.expression(stmt.cond)
        self.emit(JZ, otherwise if stmt.otherwise else end)
        c1 = self.count
        t0 = self.count
        for s in stmt.then:
            self.statement(s)
        e0 = e1 = self.count
        end_used = not stmt.otherwise
        if stmt.otherwise:
            if not _terminates(stmt.then):
                self.emit(JMP, end)
                end_used = True
            t1 = self.count
            self.emit_label(otherwise)
            e0 = self.count
            for s in stmt.otherwise:
                self.statement(s)
            e1 = self.count
        else:
            t1 = self.count
        if end_used:
            self.emit_label(end)
        self._record_branch(stmt, "if", (c0, c1), (t0, t1), (e0, e1))

    def _gen_while(self, stmt: ast.While) -> None:
        if stmt.rotate:
            # Profile-guided loop rotation: jump straight to a bottom
            # test, so each iteration pays one conditional jump instead
            # of a test-jump *and* a back-jump.  Same instruction
            # count; saves ~(iterations − 1) JMP executions per entry.
            test = self.new_label("looptest")
            body_label = self.new_label("loopbody")
            self.emit(JMP, test)
            self.emit_label(body_label)
            b0 = self.count
            for s in stmt.body:
                self.statement(s)
            b1 = self.count
            self.emit_label(test)
            c0 = self.count
            self.expression(stmt.cond)
            self.emit(JNZ, body_label)
            c1 = self.count
            self._record_branch(stmt, "while", (c0, c1), (b0, b1), (b1, b1))
            return
        loop = self.new_label("loop")
        end = self.new_label("endloop")
        self.emit_label(loop)
        c0 = self.count
        self.expression(stmt.cond)
        self.emit(JZ, end)
        c1 = self.count
        b0 = self.count
        for s in stmt.body:
            self.statement(s)
        if not _terminates(stmt.body):
            self.emit(JMP, loop)
        b1 = self.count
        self.emit_label(end)
        self._record_branch(stmt, "while", (c0, c1), (b0, b1), (b1, b1))

    # -- expressions -----------------------------------------------------------------------

    def expression(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Num):
            self.emit(PUSH, expr.value)
        elif isinstance(expr, ast.Var):
            self._load_name(expr.name, expr.line)
        elif isinstance(expr, ast.Index):
            base = self._array_base(expr.array, expr.line)
            self.expression(expr.index)
            if base:
                self.emit(PUSH, base)
                self.emit(ADD)
            self.emit(GLOADI)
        elif isinstance(expr, ast.Unary):
            self.expression(expr.operand)
            if expr.op == "-":
                self.emit(NEG)
            else:  # '!'
                self.emit(PUSH, 0)
                self.emit(EQ)
        elif isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                self._short_circuit(expr)
            else:
                self.expression(expr.left)
                self.expression(expr.right)
                self.emit(_BINOPS[expr.op])
        elif isinstance(expr, ast.Call):
            arity = self.layout.arity.get(expr.name)
            if arity is None:
                raise LangError(f"unknown function {expr.name!r}", expr.line)
            if arity != len(expr.args):
                raise LangError(
                    f"{expr.name!r} takes {arity} argument(s), "
                    f"got {len(expr.args)}",
                    expr.line,
                )
            for arg in expr.args:
                self.expression(arg)
            if self.map is not None:
                self.map.sites.append(CallSite(expr.name, self.count))
            self.emit(CALL, expr.name)
        else:  # pragma: no cover - exhaustive
            raise LangError(f"unknown expression {expr!r}")

    def _short_circuit(self, expr: ast.Binary) -> None:
        end = self.new_label("bool")
        if expr.op == "&&":
            out = self.new_label("false")
            self.expression(expr.left)
            self.emit(JZ, out)
            self.expression(expr.right)
            self.emit(JZ, out)
            self.emit(PUSH, 1)
            self.emit(JMP, end)
            self.emit_label(out)
            self.emit(PUSH, 0)
        else:  # '||'
            out = self.new_label("true")
            self.expression(expr.left)
            self.emit(JNZ, out)
            self.expression(expr.right)
            self.emit(JNZ, out)
            self.emit(PUSH, 0)
            self.emit(JMP, end)
            self.emit_label(out)
            self.emit(PUSH, 1)
        self.emit_label(end)
        self.emit(NOP)  # anchor: labels always precede an instruction

    def _load_name(self, name: str, line: int) -> None:
        if name in self.slots:
            self.emit(LOAD, self.slots[name])
        elif name in self.layout.scalar_slot:
            self.emit(GLOAD, self.layout.scalar_slot[name])
        elif name in self.layout.array_base:
            raise LangError(f"{name!r} is an array; index it", line)
        else:
            raise LangError(f"undefined name {name!r}", line)

    def _array_base(self, name: str, line: int) -> int:
        if name not in self.layout.array_base:
            raise LangError(f"{name!r} is not an array", line)
        return self.layout.array_base[name]

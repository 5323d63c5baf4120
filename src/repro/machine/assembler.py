"""The VM assembler: two producers, one core.

A program reaches the assembler as an :class:`Asm` listing: the global
segment size and, per routine, its name, its ``noprofile`` flag and an
ordered body of label names and ``(Op, operand)`` items.  Two producers
build that value:

* the Rel code generator (:mod:`repro.lang.codegen`) builds it
  directly, so compiling never prints text only to parse it again;
* :func:`parse_asm` builds it from assembly text — the hand-written
  programs, ``.s`` files and the kernel image — and keeps each item's
  line number for error messages.

One core then lays the listing out (planting prologues and block
counters, placing labels), resolves operands and shares equal
instructions, whichever producer built it.  ``str(asm)`` renders the
listing as text in the syntax below; parsing that text gives back an
equal :class:`Asm`.

Source syntax, line oriented::

    ; comment (also after instructions)
    .globals 4              ; size of the global segment (optional)

    .func main              ; begin routine 'main'
        PUSH 10
        CALL fib            ; operand: a function name
        OUT
        HALT
    .end

    .func helper noprofile  ; never gets a monitoring prologue
    loop:                   ; local label
        WORK 5
        JNZ loop
        PUSH &fib           ; push a function's address (functional parameter)
        CALLI
        RET
    .end

In an :class:`Asm` body the operand of an address op (``JMP``, ``JZ``,
``JNZ``, ``CALL``) is a label or function name, ``&fib`` is
``AddressOf("fib")``, and every other operand is an ``int``.

Assembling with ``profile=True`` plants an ``MCOUNT`` instruction at the
top of every routine not marked ``noprofile`` — the moral equivalent of
compiling with the profiling option, where "our compilers ... insert
calls to a monitoring routine in the prologue for each routine" (§3).
No other planning by the programmer is required, exactly as the paper
promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.machine.executable import Executable, Function
from repro.machine.isa import (
    ADDRESS_OPS,
    INSTRUCTION_SIZE,
    Instruction,
    Op,
    OPERAND_OPS,
)


@dataclass(frozen=True)
class AddressOf:
    """``&name``: a function's entry address, as a ``PUSH`` operand."""

    name: str

    def __str__(self) -> str:
        return f"&{self.name}"


@dataclass
class Routine:
    """One routine of an :class:`Asm` listing.

    Attributes:
        name: the routine's symbol name.
        noprofile: never plant a monitoring prologue here.
        body: label names (``str``) and ``(Op, operand)`` items, in
            order.  A label marks the address of the next instruction.
        line: source line of ``.func`` (text input only).
        lines: source line of each body entry (text input only).
    """

    name: str
    noprofile: bool = False
    body: list = field(default_factory=list)
    line: int | None = field(default=None, compare=False, repr=False)
    lines: list[int] | None = field(default=None, compare=False, repr=False)


@dataclass
class Asm:
    """An assembly listing: what the compiler emits, before layout."""

    num_globals: int = 0
    routines: list[Routine] = field(default_factory=list)

    def __str__(self) -> str:
        out = [f".globals {self.num_globals}"] if self.num_globals else []
        for routine in self.routines:
            out.append(
                f".func {routine.name} noprofile"
                if routine.noprofile
                else f".func {routine.name}"
            )
            for item in routine.body:
                if item.__class__ is str:
                    out.append(f"{item}:")
                else:
                    op, operand = item
                    out.append(
                        f"    {op.value}"
                        if operand is None
                        else f"    {op.value} {operand}"
                    )
            out.append(".end")
        return "\n".join(out) + "\n"


def assemble(
    source: Asm | str,
    name: str = "a.out",
    profile: bool = False,
    count_blocks: bool = False,
) -> Executable:
    """Assemble ``source`` into an :class:`Executable`.

    Arguments:
        source: an :class:`Asm` listing, or assembly text in the syntax
            described above.
        name: program name recorded in the image.
        profile: plant monitoring prologues (``MCOUNT``) in every
            routine not marked ``noprofile``.
        count_blocks: plant inline ``COUNT`` increments at every
            routine entry and label — §3's cheap statement-level
            counters ("inline increments to counters [Knuth71]"),
            the alternative to calling a monitoring routine.

    Raises :class:`~repro.errors.AssemblerError` on any syntax or
    reference error, with a line number when ``source`` is text.
    """
    if isinstance(source, str):
        source = parse_asm(source)
    return _layout(source, name, profile, count_blocks)


# -- the text front end ---------------------------------------------------------

#: Mnemonic → opcode.
_MNEMONICS = {op.value: op for op in Op}


def parse_asm(text: str) -> Asm:
    """Parse assembly text into an :class:`Asm` listing.

    Checks the syntax only: directives, label names and mnemonics.
    Operands stay unchecked for :func:`assemble` to judge, as it does
    for a listing built in memory.  A non-address operand that
    ``int(text, 0)`` accepts becomes an ``int``; any other stays a
    string, which assembling rejects.
    """
    asm = Asm()
    routine: Routine | None = None
    # Labels written between routines belong to the next routine.
    loose: list[tuple[str, int]] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition(";")[0].strip()
        if not line:
            continue
        if line[0] == ".":
            if line.startswith(".globals"):
                parts = line.split()
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise AssemblerError(".globals takes one integer", lineno)
                asm.num_globals = int(parts[1])
                continue
            if line.startswith(".func"):
                if routine is not None:
                    raise AssemblerError(
                        f"nested .func (still inside {routine.name!r})",
                        lineno,
                    )
                parts = line.split()
                if len(parts) < 2:
                    raise AssemblerError(".func needs a name", lineno)
                routine = Routine(
                    parts[1],
                    "noprofile" in parts[2:],
                    [label for label, _ in loose],
                    line=lineno,
                    lines=[at for _, at in loose],
                )
                loose.clear()
                asm.routines.append(routine)
                continue
            if line == ".end":
                if routine is None:
                    raise AssemblerError(".end outside .func", lineno)
                routine = None
                continue
        if line.endswith(":"):
            label = line[:-1].strip()
            if not label.isidentifier():
                raise AssemblerError(f"bad label {label!r}", lineno)
            if routine is None:
                loose.append((label, lineno))
            else:
                routine.body.append(label)
                routine.lines.append(lineno)
            continue
        if routine is None:
            raise AssemblerError("instruction outside .func", lineno)
        parts = line.split(None, 1)
        op = _MNEMONICS.get(parts[0].upper())
        if op is None:
            raise AssemblerError(
                f"unknown instruction {parts[0].upper()!r}", lineno
            )
        operand: str | int | AddressOf | None = None
        if len(parts) > 1:
            operand = parts[1].strip()
            if operand.startswith("&"):
                operand = AddressOf(operand[1:])
            elif op not in ADDRESS_OPS:
                try:
                    operand = int(operand, 0)
                except ValueError:
                    pass
        routine.body.append((op, operand))
        routine.lines.append(lineno)
    if routine is not None:
        raise AssemblerError(f"unterminated .func {routine.name!r}", len(lines))
    if loose:
        raise AssemblerError(
            f"label {loose[0][0]!r} at end of input", loose[0][1]
        )
    return asm


# -- the core: layout, resolution, sharing ---------------------------------------

#: Opcode → the one operand class an item may carry on the fast path:
#: ``int`` or ``NoneType``.  Address ops, the planted ops and anything
#: that is not an ``Op`` are absent and take the checked path.
_FAST_OPERAND = {
    op: int if op in OPERAND_OPS else type(None)
    for op in Op
    if op not in ADDRESS_OPS and op not in (Op.MCOUNT, Op.COUNT)
}

_MCOUNT = Instruction(Op.MCOUNT)


def _layout(
    asm: Asm, name: str, profile: bool, count_blocks: bool
) -> Executable:
    """Lay ``asm`` out, resolve its operands, return the image."""
    instructions: list[Instruction | None] = []
    append = instructions.append
    functions: list[Function] = []
    function_names: set[str] = set()
    labels: dict[str, int] = {}  # label or function → address
    counter_names: list[str] = []
    # Instructions are frozen values, so equal ones share one object:
    # a program repeats a few thousand distinct ones.  Keys are the
    # ``(op, value)`` items themselves.
    shared: dict[tuple[Op, int | None], Instruction] = {}
    # Operands to resolve once every label is placed:
    # (index, op, operand, routine, body position).
    deferred: list[tuple] = []
    fast_operand = _FAST_OPERAND
    for routine in asm.routines:
        func = routine.name
        if func in labels:
            raise AssemblerError(f"duplicate function {func!r}", routine.line)
        start = len(instructions) * INSTRUCTION_SIZE
        labels[func] = start
        profiled = profile and not routine.noprofile
        if profiled:
            append(_MCOUNT)
        # The name of the basic block starting at the next instruction,
        # while one is due an inline counter.
        block = "entry" if count_blocks else None
        for k, item in enumerate(routine.body):
            if item.__class__ is str:
                key = f"{func}.{item}"  # local labels are per routine
                if key in labels:
                    raise _error(f"duplicate label {item!r}", routine, k)
                labels[key] = len(instructions) * INSTRUCTION_SIZE
                if count_blocks:
                    block = item
                continue
            if block is not None:
                counter_names.append(f"{func}.{block}")
                append(Instruction(Op.COUNT, len(counter_names) - 1))
                block = None
            op, operand = item
            if operand.__class__ is fast_operand.get(op):
                ins = shared.get(item)
                if ins is None:
                    ins = shared[item] = Instruction(op, operand)
                append(ins)
                continue
            _check(op, operand, routine, k)
            deferred.append((len(instructions), op, operand, routine, k))
            append(None)
        functions.append(
            Function(func, start, len(instructions) * INSTRUCTION_SIZE, profiled)
        )
        function_names.add(func)

    for index, op, operand, routine, k in deferred:
        value = _resolve(op, operand, routine, k, labels, function_names)
        ins = shared.get((op, value))
        if ins is None:
            ins = shared[op, value] = Instruction(op, value)
        instructions[index] = ins
    return Executable(
        name=name,
        instructions=instructions,
        functions=functions,
        num_globals=asm.num_globals,
        entry_point=labels.get("main", 0),
        counter_names=counter_names,
    )


def _check(op, operand, routine: Routine, k: int) -> None:
    """Reject an item whose opcode or operand presence is wrong.

    The operand's value is judged later by :func:`_resolve`, once every
    label is known.
    """
    if not isinstance(op, Op):
        raise _error(f"unknown instruction {str(op)!r}", routine, k)
    if op is Op.MCOUNT or op is Op.COUNT:
        raise _error(
            f"{op.value} is planted by the assembler, not written by hand",
            routine, k,
        )
    if operand is None:
        if op in OPERAND_OPS:
            raise _error(f"{op.value} needs an operand", routine, k)
    elif op not in OPERAND_OPS:
        raise _error(f"{op.value} takes no operand", routine, k)


def _resolve(
    op: Op, operand, routine: Routine, k: int,
    labels: dict[str, int], function_names: set[str],
) -> int:
    """The value of an operand the fast path could not take verbatim.

    Messages quote a bad operand as text would spell it, so a listing
    and its rendering fail alike.
    """
    if operand.__class__ is AddressOf:
        # Address-of: the functional-parameter mechanism.
        if op is not Op.PUSH:
            raise _error("'&name' only valid with PUSH", routine, k)
        if operand.name not in function_names:
            raise _error(f"unknown function {operand.name!r}", routine, k)
        return labels[operand.name]
    if op in ADDRESS_OPS:
        # Try a local label first, then a function name.
        if operand.__class__ is str:
            local = labels.get(f"{routine.name}.{operand}")
            if local is not None:
                return local
            if operand in function_names:
                return labels[operand]
        raise _error(f"unknown label {str(operand)!r}", routine, k)
    raise _error(
        f"{op.value} needs an integer operand, got {str(operand)!r}",
        routine, k,
    )


def _error(message: str, routine: Routine, k: int) -> AssemblerError:
    """An error at body position ``k``, with its line if text gave one."""
    line = routine.lines[k] if routine.lines is not None else None
    return AssemblerError(message, line)

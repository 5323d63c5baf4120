"""A two-pass assembler for the VM.

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

Assembling with ``profile=True`` plants an ``MCOUNT`` instruction at the
top of every routine not marked ``noprofile`` — the moral equivalent of
compiling with the profiling option, where "our compilers ... insert
calls to a monitoring routine in the prologue for each routine" (§3).
No other planning by the programmer is required, exactly as the paper
promises.
"""

from __future__ import annotations

from repro.errors import AssemblerError
from repro.machine.executable import Executable, Function
from repro.machine.isa import (
    ADDRESS_OPS,
    INSTRUCTION_SIZE,
    Instruction,
    Op,
    OPERAND_OPS,
)

#: Mnemonic → ``(op, takes_operand, is_address)``: one dict probe per
#: source line instead of an ``Op(...)`` lookup and two set tests.
_MNEMONICS = {
    op.value: (op, op in OPERAND_OPS, op in ADDRESS_OPS) for op in Op
}

#: Mnemonics only the assembler may emit.
_PLANTED = frozenset({Op.MCOUNT.value, Op.COUNT.value})


def assemble(
    source: str,
    name: str = "a.out",
    profile: bool = False,
    count_blocks: bool = False,
) -> Executable:
    """Assemble ``source`` into an :class:`Executable`.

    Arguments:
        source: assembly text in the syntax described above.
        name: program name recorded in the image.
        profile: plant monitoring prologues (``MCOUNT``) in every
            routine not marked ``noprofile``.
        count_blocks: plant inline ``COUNT`` increments at every
            routine entry and label — §3's cheap statement-level
            counters ("inline increments to counters [Knuth71]"),
            the alternative to calling a monitoring routine.

    Raises :class:`~repro.errors.AssemblerError` with a line number on
    any syntax or reference error.
    """
    return _Assembler(source, name, profile, count_blocks).assemble()


class _Assembler:
    """Two passes: collect layout and labels, then resolve operands."""

    def __init__(
        self, source: str, name: str, profile: bool, count_blocks: bool = False
    ):
        self.source = source
        self.name = name
        self.profile = profile
        self.count_blocks = count_blocks
        self.counter_names: list[str] = []
        self._entry_count_pending = False
        # (line, op, raw operand, operand is a code address)
        self.items: list[tuple[int, Op, str | int | None, bool]] = []
        self.functions: list[Function] = []
        self.function_names: set[str] = set()
        self.labels: dict[str, int] = {}  # resolved label → address
        self.num_globals = 0

    def assemble(self) -> Executable:
        self._first_pass()
        instructions = self._second_pass()
        entry = self.labels.get("main", 0)
        return Executable(
            name=self.name,
            instructions=instructions,
            functions=self.functions,
            num_globals=self.num_globals,
            entry_point=entry,
            counter_names=self.counter_names,
        )

    # -- pass 1: layout ---------------------------------------------------------

    def _first_pass(self) -> None:
        current_func: str | None = None
        func_profiled = False
        func_start = 0
        pending_labels: list[tuple[int, str]] = []
        addr = 0

        def place_labels() -> None:
            for lineno, label in pending_labels:
                key = self._label_key(current_func, label)
                if key in self.labels:
                    raise AssemblerError(f"duplicate label {label!r}", lineno)
                self.labels[key] = addr
            pending_labels.clear()

        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.partition(";")[0].strip()
            if not line:
                continue
            if line[0] == ".":
                if line.startswith(".globals"):
                    parts = line.split()
                    if len(parts) != 2 or not parts[1].isdecimal():
                        raise AssemblerError(
                            ".globals takes one integer", lineno
                        )
                    self.num_globals = int(parts[1])
                    continue
                if line.startswith(".func"):
                    if current_func is not None:
                        raise AssemblerError(
                            f"nested .func (still inside {current_func!r})",
                            lineno,
                        )
                    parts = line.split()
                    if len(parts) < 2:
                        raise AssemblerError(".func needs a name", lineno)
                    current_func = parts[1]
                    func_profiled = (
                        self.profile and "noprofile" not in parts[2:]
                    )
                    if current_func in self.labels:
                        raise AssemblerError(
                            f"duplicate function {current_func!r}", lineno
                        )
                    self.labels[current_func] = addr
                    func_start = addr
                    if func_profiled:
                        self.items.append((lineno, Op.MCOUNT, None, False))
                        addr += INSTRUCTION_SIZE
                    self._entry_count_pending = self.count_blocks
                    continue
                if line == ".end":
                    if current_func is None:
                        raise AssemblerError(".end outside .func", lineno)
                    place_labels()
                    self.functions.append(
                        Function(current_func, func_start, addr, func_profiled)
                    )
                    self.function_names.add(current_func)
                    current_func = None
                    continue
            if line.endswith(":"):
                label = line[:-1].strip()
                if not label.isidentifier():
                    raise AssemblerError(f"bad label {label!r}", lineno)
                pending_labels.append((lineno, label))
                continue
            if current_func is None:
                raise AssemblerError("instruction outside .func", lineno)
            item = self._parse_instruction(line, lineno)
            block_label = None
            if pending_labels:
                block_label = pending_labels[-1][1]
                place_labels()
            if self.count_blocks and (self._entry_count_pending or block_label):
                # A basic block starts here (routine entry or a branch
                # target): plant the inline counter increment.
                counter = len(self.counter_names)
                self.counter_names.append(
                    f"{current_func}.{block_label or 'entry'}"
                )
                self.items.append((lineno, Op.COUNT, counter, False))
                addr += INSTRUCTION_SIZE
                self._entry_count_pending = False
            self.items.append(item)
            addr += INSTRUCTION_SIZE
        if current_func is not None:
            raise AssemblerError(f"unterminated .func {current_func!r}", len(
                self.source.splitlines()
            ))
        if pending_labels:
            raise AssemblerError(
                f"label {pending_labels[0][1]!r} at end of input",
                pending_labels[0][0],
            )

    def _parse_instruction(self, line: str, lineno: int):
        """One instruction line → its ``items`` entry."""
        parts = line.split(None, 1)
        mnemonic = parts[0].upper()
        decoded = _MNEMONICS.get(mnemonic)
        if decoded is None:
            raise AssemblerError(f"unknown instruction {mnemonic!r}", lineno)
        if mnemonic in _PLANTED:
            raise AssemblerError(
                f"{mnemonic} is planted by the assembler, not written by hand",
                lineno,
            )
        op, takes_operand, is_address = decoded
        operand = parts[1].strip() if len(parts) > 1 else None
        if takes_operand and operand is None:
            raise AssemblerError(f"{mnemonic} needs an operand", lineno)
        if not takes_operand and operand is not None:
            raise AssemblerError(f"{mnemonic} takes no operand", lineno)
        return lineno, op, operand, is_address

    # -- pass 2: resolve ---------------------------------------------------------

    def _second_pass(self) -> list[Instruction]:
        instructions: list[Instruction] = []
        # Instructions are frozen values, so equal ones share one
        # object: a program repeats a few thousand distinct ones.
        shared: dict[tuple[Op, int | None], Instruction] = {}
        func_iter = iter(self.functions)
        current = next(func_iter, None)
        addr = 0
        for lineno, op, operand, is_address in self.items:
            while current is not None and addr >= current.end:
                current = next(func_iter, None)
            value: int | None = None
            if isinstance(operand, int):
                value = operand  # assembler-planted counter index
            elif operand is not None:
                value = self._resolve(
                    op, operand, is_address,
                    current.name if current else None, lineno,
                )
            ins = shared.get((op, value))
            if ins is None:
                ins = shared[op, value] = Instruction(op, value)
            instructions.append(ins)
            addr += INSTRUCTION_SIZE
        return instructions

    def _resolve(
        self, op: Op, operand: str, is_address: bool, func: str | None,
        lineno: int,
    ) -> int:
        if operand.startswith("&"):
            # Address-of: the functional-parameter mechanism.
            if op is not Op.PUSH:
                raise AssemblerError("'&name' only valid with PUSH", lineno)
            target = operand[1:]
            if target not in self.function_names:
                raise AssemblerError(f"unknown function {target!r}", lineno)
            return self.labels[target]
        if is_address:
            # Try a local label first, then a function name.
            local = self._label_key(func, operand)
            if local in self.labels:
                return self.labels[local]
            if operand in self.function_names:
                return self.labels[operand]
            raise AssemblerError(f"unknown label {operand!r}", lineno)
        try:
            return int(operand, 0)
        except ValueError:
            raise AssemblerError(
                f"{op.value} needs an integer operand, got {operand!r}", lineno
            ) from None

    @staticmethod
    def _label_key(func: str | None, label: str) -> str:
        """Local labels are namespaced per function."""
        return f"{func}.{label}" if func else label

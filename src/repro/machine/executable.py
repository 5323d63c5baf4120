"""Executable images: the VM's equivalent of an ``a.out`` file.

An :class:`Executable` bundles a text segment (the instruction list),
the function symbol table, and a little metadata — everything gprof's
post-processor needs from the program besides the profile data itself:
symbol names for addresses, and instructions to crawl for static arcs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.symbols import Symbol, SymbolTable
from repro.errors import MachineError
from repro.machine.isa import INSTRUCTION_SIZE, Instruction, Op


@dataclass(frozen=True)
class Function:
    """One routine of the executable.

    Attributes:
        name: the routine's symbol name.
        entry: entry address.
        end: one past the routine's last instruction.
        profiled: whether the assembler planted a monitoring prologue.
    """

    name: str
    entry: int
    end: int
    profiled: bool = False


@dataclass
class Executable:
    """A loaded program image.

    Attributes:
        name: program name (provenance only).
        instructions: the text segment; instruction ``i`` occupies
            addresses ``[i*INSTRUCTION_SIZE, (i+1)*INSTRUCTION_SIZE)``.
        functions: routine records, in address order.
        num_globals: size of the global variable segment.
        entry_point: address where execution starts (the first
            instruction of ``main`` if present, else address 0).
        counter_names: names of the inline block counters planted by a
            ``count_blocks`` assembly (``function.label`` or
            ``function.entry``); empty for ordinary builds.
    """

    name: str
    instructions: list[Instruction]
    functions: list[Function]
    num_globals: int = 0
    entry_point: int = 0
    counter_names: list[str] = field(default_factory=list)

    @property
    def low_pc(self) -> int:
        """First text address."""
        return 0

    @property
    def high_pc(self) -> int:
        """One past the last text address."""
        return len(self.instructions) * INSTRUCTION_SIZE

    def fetch(self, pc: int) -> Instruction:
        """The instruction at address ``pc``."""
        if pc % INSTRUCTION_SIZE:
            raise MachineError(f"misaligned pc {pc:#x}")
        idx = pc // INSTRUCTION_SIZE
        if not 0 <= idx < len(self.instructions):
            raise MachineError(f"pc {pc:#x} outside text segment")
        return self.instructions[idx]

    def symbol_table(self) -> SymbolTable:
        """The executable's symbol table, for post-processing."""
        return SymbolTable(
            Symbol(f.entry, f.name, f.end, module=self.name)
            for f in self.functions
        )

    def function_at(self, pc: int) -> Function | None:
        """The function whose body contains ``pc``."""
        for f in self.functions:
            if f.entry <= pc < f.end:
                return f
        return None

    def function_named(self, name: str) -> Function:
        """The function called ``name``."""
        for f in self.functions:
            if f.name == name:
                return f
        raise MachineError(f"no function named {name!r} in {self.name}")

    @property
    def profiled(self) -> bool:
        """Whether any routine carries a monitoring prologue."""
        return any(f.profiled for f in self.functions)

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable image (our on-disk executable format)."""
        return {
            "format": "repro-vmexe-1",
            "name": self.name,
            "num_globals": self.num_globals,
            "entry_point": self.entry_point,
            "functions": [
                {
                    "name": f.name,
                    "entry": f.entry,
                    "end": f.end,
                    "profiled": f.profiled,
                }
                for f in self.functions
            ],
            "text": [
                [ins.op.value, ins.operand] for ins in self.instructions
            ],
            "counter_names": list(self.counter_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Executable":
        """Inverse of :meth:`to_dict`."""
        if data.get("format") != "repro-vmexe-1":
            raise MachineError(f"unknown executable format {data.get('format')!r}")
        return cls(
            name=data["name"],
            instructions=[
                Instruction(Op(opname), operand) for opname, operand in data["text"]
            ],
            functions=[
                Function(f["name"], f["entry"], f["end"], f["profiled"])
                for f in data["functions"]
            ],
            num_globals=data["num_globals"],
            entry_point=data["entry_point"],
            counter_names=list(data.get("counter_names", ())),
        )

    def save(self, path) -> None:
        """Write the image to ``path``."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path) -> "Executable":
        """Read an image written by :meth:`save`."""
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def disassemble(self) -> str:
        """A readable text-segment dump, for debugging and docs."""
        by_entry = {f.entry: f for f in self.functions}
        lines = []
        for i, ins in enumerate(self.instructions):
            addr = i * INSTRUCTION_SIZE
            fn = by_entry.get(addr)
            if fn is not None:
                lines.append(f"{fn.name}:")
            lines.append(f"  {addr:#06x}  {ins}")
        return "\n".join(lines) + "\n"

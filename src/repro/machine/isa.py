"""Instruction set of the little stack machine used as profiling substrate.

The original gprof measured compiled VAX/PDP-11 executables; we stand in
a small virtual machine so that programs have *real* program counters,
call sites, return addresses, and a text segment that can be crawled for
the static call graph — the exact raw material gprof consumes.

Design points that matter to the profiler:

* Every instruction occupies :data:`INSTRUCTION_SIZE` address units, so
  program counters are honest addresses and the sampling histogram's
  bucket geometry is meaningful.
* ``CALL`` pushes a return address; the ``MCOUNT`` pseudo-instruction the
  assembler plants in profiled prologues can therefore discover both the
  callee (its own location) and the call site (the return address minus
  one instruction), exactly as §3.1 describes.
* ``CALLI`` calls through a value on the operand stack — a functional
  parameter.  One ``CALLI`` site invoking many targets is what exercises
  the secondary-key path of the arc hash table.
* ``WORK n`` burns ``n`` extra cycles: ground-truth control over where
  execution time goes, which the accuracy benchmarks rely on.

Each instruction has a cycle cost (:data:`COSTS`); the CPU's cycle
counter drives the simulated profiling clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

#: Address units per instruction.  Chosen to echo byte-addressed machines
#: with fixed-width instructions; any positive constant would do.
INSTRUCTION_SIZE = 4


class Op(Enum):
    """Opcodes of the VM.

    Members hash by identity.  They are singletons compared by
    identity, and the inherited ``Enum.__hash__`` is a Python-level
    call, paid on every dict or set probe (the assembler's sharing
    table, the fast engine's predecode).  Set iteration order changes
    between processes either way: the inherited hash hashes the name,
    and str hashes are salted.
    """

    __hash__ = object.__hash__

    # stack
    PUSH = "PUSH"      # operand: constant → push
    POP = "POP"        # discard top
    DUP = "DUP"        # duplicate top
    SWAP = "SWAP"      # swap top two
    # arithmetic (binary ops pop b then a, push a∘b)
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"        # integer division, traps on zero divisor
    MOD = "MOD"
    NEG = "NEG"
    # comparisons (push 1 or 0)
    EQ = "EQ"
    NE = "NE"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"
    # locals and globals (operand: slot index)
    LOAD = "LOAD"
    STORE = "STORE"
    GLOAD = "GLOAD"
    GSTORE = "GSTORE"
    # indexed global access (index from the stack): the machine's
    # arrays, needed by data-movement workloads like sorting
    GLOADI = "GLOADI"   # pop index, push globals[index]
    GSTOREI = "GSTOREI"  # pop index, pop value, globals[index] = value
    # control flow (operand: absolute address)
    JMP = "JMP"
    JZ = "JZ"          # pop, jump if zero
    JNZ = "JNZ"        # pop, jump if nonzero
    # procedure linkage
    CALL = "CALL"      # operand: callee entry address
    CALLI = "CALLI"    # pop callee entry address from stack
    RET = "RET"        # return (value, if any, stays on operand stack)
    # miscellany
    HALT = "HALT"
    NOP = "NOP"
    WORK = "WORK"      # operand: extra cycles to burn
    OUT = "OUT"        # pop, append to the machine's output buffer
    MCOUNT = "MCOUNT"  # profiled-prologue call into the monitoring routine
    COUNT = "COUNT"    # inline counter increment (operand: counter index) —
                       # §3's cheap alternative for statement-level counts


#: Cycle cost of each instruction.  ``WORK`` adds its operand on top of
#: the base cost; ``MCOUNT``'s cost is decided by the monitoring routine
#: (base + hash probes) so profiling overhead is observable.
COSTS: dict[Op, int] = {
    Op.PUSH: 1, Op.POP: 1, Op.DUP: 1, Op.SWAP: 1,
    Op.ADD: 1, Op.SUB: 1, Op.MUL: 3, Op.DIV: 6, Op.MOD: 6, Op.NEG: 1,
    Op.EQ: 1, Op.NE: 1, Op.LT: 1, Op.LE: 1, Op.GT: 1, Op.GE: 1,
    Op.LOAD: 1, Op.STORE: 1, Op.GLOAD: 2, Op.GSTORE: 2,
    Op.GLOADI: 3, Op.GSTOREI: 3,
    Op.JMP: 1, Op.JZ: 1, Op.JNZ: 1,
    Op.CALL: 4, Op.CALLI: 5, Op.RET: 3,
    Op.HALT: 1, Op.NOP: 1, Op.WORK: 1, Op.OUT: 1, Op.MCOUNT: 0,
    Op.COUNT: 1,  # "The counter increment overhead is low" (§3)
}

#: Opcodes that take one operand.
OPERAND_OPS = frozenset(
    {Op.PUSH, Op.LOAD, Op.STORE, Op.GLOAD, Op.GSTORE,
     Op.JMP, Op.JZ, Op.JNZ, Op.CALL, Op.WORK, Op.COUNT}
)

#: Opcodes whose operand is a code address (assembler resolves labels).
ADDRESS_OPS = frozenset({Op.JMP, Op.JZ, Op.JNZ, Op.CALL})

#: Operand-stack effect of each opcode as ``(pops, pushes)``, the raw
#: material of the stack-balance verifier (:mod:`repro.check.absint`).
#: ``CALL``/``CALLI``/``RET`` are absent on purpose: a call's net effect
#: is the callee's summary (computed interprocedurally) and ``RET``
#: leaves the operand stack to the caller, so neither is a fixed
#: (pops, pushes) pair.  ``MCOUNT`` runs entirely in the monitor and
#: never touches the operand stack.
STACK_EFFECTS: dict[Op, tuple[int, int]] = {
    Op.PUSH: (0, 1), Op.POP: (1, 0), Op.DUP: (1, 2), Op.SWAP: (2, 2),
    Op.ADD: (2, 1), Op.SUB: (2, 1), Op.MUL: (2, 1), Op.DIV: (2, 1),
    Op.MOD: (2, 1), Op.NEG: (1, 1),
    Op.EQ: (2, 1), Op.NE: (2, 1), Op.LT: (2, 1), Op.LE: (2, 1),
    Op.GT: (2, 1), Op.GE: (2, 1),
    Op.LOAD: (0, 1), Op.STORE: (1, 0), Op.GLOAD: (0, 1), Op.GSTORE: (1, 0),
    Op.GLOADI: (1, 1), Op.GSTOREI: (2, 0),
    Op.JMP: (0, 0), Op.JZ: (1, 0), Op.JNZ: (1, 0),
    Op.HALT: (0, 0), Op.NOP: (0, 0), Op.WORK: (0, 0), Op.OUT: (1, 0),
    Op.MCOUNT: (0, 0), Op.COUNT: (0, 0),
}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Attributes:
        op: the opcode.
        operand: the single operand, or None.  For :data:`ADDRESS_OPS`
            (and ``PUSH`` of a function address) this is an absolute
            code address after assembly.
    """

    op: Op
    operand: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.operand is None:
            return self.op.value
        return f"{self.op.value} {self.operand}"

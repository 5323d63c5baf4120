"""The VM interpreter: program counters, call stack, and a cycle clock.

The CPU executes an :class:`~repro.machine.executable.Executable` and
maintains the two things the profiler cares about:

* a **cycle clock** — every instruction has a cost; profiling overhead
  (the monitoring routine's work) is charged in cycles too, so the
  T-OVERHEAD benchmark can compare profiled and unprofiled runs of the
  same program exactly;
* a **profiling clock** — every ``cycles_per_tick`` cycles the attached
  :class:`~repro.machine.monitor.Monitor` samples the current PC, just
  as the original kernel recorded "a histogram of the program counter
  as it is observed at every clock tick".  Sampling happens *during*
  the instruction that crosses the tick boundary, so long-running
  instructions (``WORK n``) accumulate samples at their own address.

``MCOUNT`` instructions (planted by the assembler in profiled
prologues) invoke the monitoring routine with the callee's entry
address and the call site discovered from the return address — §3.1's
mechanism, including "spontaneous" invocation of the entry routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.executable import Executable
from repro.machine.isa import COSTS, INSTRUCTION_SIZE, Instruction, Op
from repro.machine.monitor import Monitor


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C semantics), exact for
    arbitrarily large operands.

    When the operands share a sign the quotient is non-negative, so
    floor division already truncates toward zero and the hot DIV/MOD
    path is a single ``//``.  Only mixed-sign operands need the
    correction step.
    """
    if (a >= 0) == (b >= 0):
        return a // b
    q = a // b
    if q * b != a:
        q += 1
    return q


@dataclass
class Frame:
    """One activation record.

    Attributes:
        return_addr: where RET resumes in the caller; None for the
            initial (spontaneously invoked) frame.
        locals: per-activation variable slots, grown on demand.
        interrupted: True when this frame was pushed by an asynchronous
            interrupt rather than a CALL — its return address points at
            the interrupted instruction, *not* at a call site, which is
            §3.1's "non-standard calling sequence": the monitoring
            routine must declare the invocation spontaneous.
    """

    return_addr: int | None
    locals: list[int] = field(default_factory=list)
    interrupted: bool = False


@dataclass
class InterruptSource:
    """A periodic asynchronous interrupt.

    Attributes:
        handler: name of the routine to dispatch to.
        period: cycles between deliveries.
        phase: cycle of the first delivery (defaults to one period in).
    """

    handler: str
    period: int
    phase: int | None = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise MachineError(f"interrupt period must be positive, got {self.period}")


class CPU:
    """An interpreter for one executable, optionally monitored.

    Attributes:
        exe: the program image.
        monitor: profiling state, or None for an unprofiled run.
        cycles: the cycle clock.
        output: values emitted by ``OUT`` instructions.
    """

    #: Call-stack depth limit: deep recursion is a program bug, not a
    #: reason to exhaust host memory.
    MAX_FRAMES = 100_000
    #: Operand stack limit.
    MAX_STACK = 1_000_000

    def __init__(
        self,
        exe: Executable,
        monitor: Monitor | None = None,
        interrupts: list[InterruptSource] | None = None,
    ):
        self.exe = exe
        self.monitor = monitor
        self.pc = exe.entry_point
        self.stack: list[int] = []
        self.frames: list[Frame] = [Frame(return_addr=None)]
        self.globals: list[int] = [0] * exe.num_globals
        self.counters: list[int] = [0] * len(exe.counter_names)
        self.output: list[int] = []
        self.cycles = 0
        self.instructions_executed = 0
        self.halted = False
        self.tracer = None  # optional on_call/on_return listener
        self._tick_interval = (
            monitor.config.cycles_per_tick if monitor is not None else 0
        )
        self._next_tick = self._tick_interval if monitor is not None else 0
        self._interrupts = list(interrupts or ())
        self._next_irq = [
            src.phase if src.phase is not None else src.period
            for src in self._interrupts
        ]
        self._irq_entries = [
            exe.function_named(src.handler).entry for src in self._interrupts
        ]
        self._irq_active = False
        self.interrupts_delivered = 0

    # -- the clock -----------------------------------------------------------------

    def _advance_clock(self, cost: int, at_pc: int) -> None:
        """Charge ``cost`` cycles; deliver any clock ticks that elapse.

        Each tick samples ``at_pc`` — the address of the instruction
        being executed when the tick fires.
        """
        self.cycles += cost
        if self.monitor is None:
            return
        while self._next_tick <= self.cycles:
            self.monitor.tick(at_pc)
            self._next_tick += self._tick_interval

    # -- stack helpers ---------------------------------------------------------------

    def _pop(self) -> int:
        try:
            return self.stack.pop()
        except IndexError:
            raise MachineError(
                f"operand stack underflow at pc {self.pc:#x}"
            ) from None

    def _push(self, value: int) -> None:
        if len(self.stack) >= self.MAX_STACK:
            raise MachineError(f"operand stack overflow at pc {self.pc:#x}")
        self.stack.append(value)

    def _frame(self) -> Frame:
        return self.frames[-1]

    def _local(self, slot: int) -> list[int]:
        if slot < 0:
            raise MachineError(f"negative local slot {slot} at pc {self.pc:#x}")
        locals_ = self._frame().locals
        while len(locals_) <= slot:
            locals_.append(0)
        return locals_

    def _enter(self, target: int, return_addr: int) -> None:
        if len(self.frames) >= self.MAX_FRAMES:
            raise MachineError(
                f"call stack overflow ({self.MAX_FRAMES} frames) calling "
                f"{target:#x} from {return_addr - INSTRUCTION_SIZE:#x}"
            )
        if target % INSTRUCTION_SIZE or not (
            self.exe.low_pc <= target < self.exe.high_pc
        ):
            raise MachineError(f"call to bad address {target:#x}")
        self.frames.append(Frame(return_addr=return_addr))
        self.pc = target
        if self.tracer is not None:
            self.tracer.on_call(self, target)

    def _maybe_deliver_interrupt(self) -> None:
        """Dispatch one due interrupt (handlers do not nest)."""
        for i, due in enumerate(self._next_irq):
            if self.cycles < due:
                continue
            src = self._interrupts[i]
            while self._next_irq[i] <= self.cycles:
                self._next_irq[i] += src.period
            self.frames.append(Frame(return_addr=self.pc, interrupted=True))
            self.pc = self._irq_entries[i]
            self._irq_active = True
            self.interrupts_delivered += 1
            if self.tracer is not None:
                self.tracer.on_call(self, self._irq_entries[i])
            return

    # -- execution --------------------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            raise MachineError("cpu is halted")
        if self._interrupts and not self._irq_active:
            self._maybe_deliver_interrupt()
        pc = self.pc
        ins = self.exe.fetch(pc)
        op = ins.op
        cost = COSTS[op]
        self.pc = pc + INSTRUCTION_SIZE  # default: fall through
        self.instructions_executed += 1

        if op is Op.PUSH:
            self._push(ins.operand)
        elif op is Op.POP:
            self._pop()
        elif op is Op.DUP:
            v = self._pop()
            self._push(v)
            self._push(v)
        elif op is Op.SWAP:
            b, a = self._pop(), self._pop()
            self._push(b)
            self._push(a)
        elif op is Op.ADD:
            b, a = self._pop(), self._pop()
            self._push(a + b)
        elif op is Op.SUB:
            b, a = self._pop(), self._pop()
            self._push(a - b)
        elif op is Op.MUL:
            b, a = self._pop(), self._pop()
            self._push(a * b)
        elif op is Op.DIV:
            b, a = self._pop(), self._pop()
            if b == 0:
                raise MachineError(f"division by zero at pc {pc:#x}")
            self._push(_trunc_div(a, b))
        elif op is Op.MOD:
            b, a = self._pop(), self._pop()
            if b == 0:
                raise MachineError(f"modulo by zero at pc {pc:#x}")
            self._push(a - _trunc_div(a, b) * b)
        elif op is Op.NEG:
            self._push(-self._pop())
        elif op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE):
            b, a = self._pop(), self._pop()
            result = {
                Op.EQ: a == b, Op.NE: a != b, Op.LT: a < b,
                Op.LE: a <= b, Op.GT: a > b, Op.GE: a >= b,
            }[op]
            self._push(int(result))
        elif op is Op.LOAD:
            self._push(self._local(ins.operand)[ins.operand])
        elif op is Op.STORE:
            self._local(ins.operand)[ins.operand] = self._pop()
        elif op is Op.GLOAD:
            self._push(self._global(ins.operand, pc))
        elif op is Op.GSTORE:
            self._set_global(ins.operand, self._pop(), pc)
        elif op is Op.GLOADI:
            self._push(self._global(self._pop(), pc))
        elif op is Op.GSTOREI:
            slot = self._pop()
            self._set_global(slot, self._pop(), pc)
        elif op is Op.JMP:
            self.pc = ins.operand
        elif op is Op.JZ:
            if self._pop() == 0:
                self.pc = ins.operand
        elif op is Op.JNZ:
            if self._pop() != 0:
                self.pc = ins.operand
        elif op is Op.CALL:
            self._enter(ins.operand, pc + INSTRUCTION_SIZE)
        elif op is Op.CALLI:
            self._enter(self._pop(), pc + INSTRUCTION_SIZE)
        elif op is Op.RET:
            frame = self.frames.pop()
            if self.tracer is not None:
                self.tracer.on_return(self)
            if frame.interrupted:
                self._irq_active = False
                self.pc = frame.return_addr  # resume interrupted code
            elif frame.return_addr is None:
                self.halted = True  # returning from the entry routine
            else:
                self.pc = frame.return_addr
        elif op is Op.HALT:
            self.halted = True
        elif op is Op.NOP:
            pass
        elif op is Op.WORK:
            if ins.operand < 0:
                raise MachineError(f"negative WORK operand at pc {pc:#x}")
            cost += ins.operand
        elif op is Op.OUT:
            self.output.append(self._pop())
        elif op is Op.MCOUNT:
            # §3.1: the monitoring routine notes its own return address
            # (identifying the callee's prologue) and the routine's
            # return address (identifying the call site in the caller).
            # Interrupt frames carry a return address that is *not* a
            # call site — "such anomalous invocations are declared
            # spontaneous".
            frame = self._frame()
            if frame.return_addr is None or frame.interrupted:
                from_pc = None
            else:
                from_pc = frame.return_addr - INSTRUCTION_SIZE
            if self.monitor is not None:
                cost += self.monitor.mcount(from_pc, pc)
        elif op is Op.COUNT:
            # §3's statement-level alternative: a bare in-memory
            # increment, no routine call, no hash lookup.
            self.counters[ins.operand] += 1
        else:  # pragma: no cover - exhaustive enum
            raise MachineError(f"unimplemented opcode {op}")

        self._advance_clock(cost, pc)

    def _global(self, slot: int, pc: int) -> int:
        if not 0 <= slot < len(self.globals):
            raise MachineError(f"global slot {slot} out of range at pc {pc:#x}")
        return self.globals[slot]

    def _set_global(self, slot: int, value: int, pc: int) -> None:
        if not 0 <= slot < len(self.globals):
            raise MachineError(f"global slot {slot} out of range at pc {pc:#x}")
        self.globals[slot] = value

    def run(
        self,
        max_instructions: int | None = None,
        max_cycles: int | None = None,
    ) -> "CPU":
        """Run until HALT or a budget is exhausted; returns self.

        Budgets make the CPU resumable: kgmon-style live profiling runs
        the "kernel" in slices, extracting profile snapshots in between.
        """
        executed = 0
        while not self.halted:
            if max_instructions is not None and executed >= max_instructions:
                break
            if max_cycles is not None and self.cycles >= max_cycles:
                break
            self.step()
            executed += 1
        return self

    @property
    def current_function(self) -> str | None:
        """Name of the routine containing the current PC (for debugging)."""
        fn = self.exe.function_at(self.pc)
        return fn.name if fn else None

    def charge_overhead(self, cost: int) -> None:
        """Charge ``cost`` cycles of *profiler* work to the clock.

        The profiling clock is shifted by the same amount, so the
        overhead itself is never sampled (the kernel's histogram never
        billed the kernel's own walk to the program) and, crucially, a
        per-tick cost larger than the tick interval cannot re-trigger
        ticks forever.
        """
        self.cycles += cost
        self._next_tick += cost

    def stack_functions(self) -> list[str]:
        """The live routine chain, root first, leaf last.

        Reconstructed the way a debugger (or a modern stack-sampling
        profiler) would: each frame's saved return address identifies
        the call site — and therefore the routine — it will resume in;
        the current PC identifies the routine executing right now.
        """
        names: list[str] = []
        for frame in self.frames[1:]:
            # An interrupted frame's return address is the interrupted
            # instruction itself, not the slot after a CALL.
            site = (
                frame.return_addr
                if frame.interrupted
                else frame.return_addr - INSTRUCTION_SIZE
            )
            fn = self.exe.function_at(site)
            if fn is not None:
                names.append(fn.name)
        leaf = self.exe.function_at(self.pc)
        if leaf is not None:
            names.append(leaf.name)
        return names

"""The fast interpreter: predecode + threaded dispatch + batched clocks.

:class:`~repro.machine.cpu.CPU` is the *reference* engine: a readable
``if``/``elif`` chain that re-decodes every instruction, re-checks the
tick boundary, and re-enters Python attribute lookups on every cycle.
The paper's own thesis — "the greatest volume of data is the execution
counts ... the routines to gather it must be fast" (§3) — applies to
the simulated hardware too: every benchmark, canned program, and fleet
corpus generator in this reproduction is bottlenecked by that loop.

:class:`FastCPU` keeps the reference engine's API and *observable
behaviour* (same cycle clock, same histogram buckets, same arc counts,
byte-identical ``gmon.out``; the differential suite in
``tests/test_fastcpu_equivalence.py`` enforces this over the whole
canned corpus plus hypothesis-generated programs) while restructuring
the execution core around four ideas:

**Predecode.**  :func:`predecode` lowers an
:class:`~repro.machine.executable.Executable` once into parallel arrays
— integer opcode index, operand, static cycle cost — cached on the
executable, so the hot loop never touches :class:`Instruction` objects,
enum identity chains, or the ``COSTS`` dict.  Static jump/call targets
are resolved to instruction *indices* at predecode time; instructions
the fast path cannot prove safe (misaligned targets, missing or
negative operands) are lowered to a DEFER opcode that routes through
the reference ``step()``, so degenerate programs keep reference
semantics — including error messages — exactly.

**Threaded dispatch.**  Execution goes through a table of per-opcode
bound handlers (a closure array indexed by the predecoded opcode)
instead of the 30-branch chain.  Each handler receives the predecoded
operand and the instruction index and returns the next index; machine
state lives in closure cells bound once per CPU, not in attribute
lookups repeated per instruction.

**Event horizons (batched clocks).**  The per-instruction clock work is
hoisted out of the dispatch loop: the run loop computes one event
horizon — the next profiling tick, the next interrupt delivery or the
``max_cycles`` budget, whichever comes first — and burns straight-line
instructions against a local cycle counter until an instruction's charge
reaches it.  That instruction runs on the fast path too.  Then the
monitor's own ``tick`` fires once for each tick the charge reached, at
the instruction's pc and in ``step()``'s order.  The registers are
written back first and the clock is re-read afterwards, so a tick that
reads the machine or charges it (a stack walk) sees and leaves the
reference state.  A charge, walks included, that reached an interrupt's
due cycle or the budget returns to the top of the run loop, which checks
budgets and delivers interrupts in the reference ``run()``/``step()``
order.  The reference ``step()`` runs only what predecode deferred.
Tick placement is re-implemented here, so it is the differential suite,
not construction, that makes it identical.

**Superinstructions.**  Predecode lowers each run of plain ops that the
compiler emits for a hot idiom (a local compare-and-branch, a local
increment, a store and reload, a loop back-edge, a parameter prologue,
an argument set-up before a call, a return, an array store or compare)
into one slot with one handler and the run's summed cost, so the loop
dispatches once per run.  Every slot keeps its own entry, so a jump
into a run executes from there.  A run whose summed charge would reach
the event horizon runs its first instruction alone on the event path,
so ticks still land on the exact pc.  A run's handler checks every
member's precondition before it changes anything; if one fails (the
member would fault) the run's first instruction runs alone, and the
fault is raised by the plain handler at its reference state.  An image
with a ``PUSH`` whose operand is not an int fuses nothing: with only
int operands every value the handlers see is an int, whose operations
cannot raise.

``MCOUNT`` — the monitoring routine, executed on every profiled call —
is committed against the monitor's process-local, site-keyed
:class:`~repro.machine.mcount.ArcTable` before the crossing check, as
``step()`` commits it before charging.  §3.1's "usually one" case is
inlined: when the call site's secondary chain exists and its head record
is this callee, the arc count is a direct head bump (one dict probe, no
scan, no allocation).  The head entry of a chain never moves (records
are appended, never reordered), so consulting the live table keeps this
memo coherent across ``kgmon``-style mid-run resets.  Multi-callee
sites, first calls, and spontaneous invocations run
:meth:`Monitor.mcount` itself.  Either way the monitor's ``arc_sink``
(an SMP shard's buffer) receives the arc too.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from operator import add, mul

from repro.errors import MachineError
from repro.machine.cpu import CPU, Frame, _trunc_div
from repro.machine.executable import Executable
from repro.machine.isa import (
    COSTS,
    INSTRUCTION_SIZE,
    OPERAND_OPS,
    Op,
)
from repro.machine.mcount import MCOUNT_BASE_COST, MCOUNT_PROBE_COST
from repro.machine.monitor import Monitor

#: Opcode numbering for the dispatch table: plain ops first, then the
#: superinstructions, then the "event" ops the run loop handles out of
#: line.  The order within each group is arbitrary but frozen —
#: predecoded arrays embed it.
_PLAIN_OPS: tuple[Op, ...] = (
    Op.PUSH, Op.POP, Op.DUP, Op.SWAP,
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.NEG,
    Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE,
    Op.LOAD, Op.STORE, Op.GLOAD, Op.GSTORE, Op.GLOADI, Op.GSTOREI,
    Op.JMP, Op.JZ, Op.JNZ, Op.CALL, Op.CALLI, Op.RET,
    Op.HALT, Op.NOP, Op.OUT, Op.COUNT,
)

#: The superinstructions (DESIGN §14): runs of plain ops that
#: ``lang.codegen`` emits for one idiom, each dispatched as one slot.
#: Each entry removes at least 1% of the dispatches of the benchmark's
#: ``canned`` or ``wide`` (seed 1) pass; the columns give those shares.
FUSED: tuple[tuple[Op, ...], ...] = (
    #                                        idiom           canned    wide
    (Op.LOAD, Op.PUSH, Op.LT, Op.JZ),      # while (x < k)   10.41%  13.59%
    (Op.LOAD, Op.PUSH, Op.LE, Op.JZ),      # while (x <= k)   2.79%   0.00%
    (Op.LOAD, Op.PUSH, Op.GT, Op.JZ),      # if (x > k)       0.37%   2.76%
    (Op.LOAD, Op.PUSH, Op.EQ, Op.JZ),      # if (x == k)      4.99%   0.00%
    (Op.LOAD, Op.PUSH, Op.ADD, Op.STORE),  # x = x + k        5.25%   0.12%
    (Op.LOAD, Op.PUSH, Op.SUB, Op.CALL),   # f(x - k)         4.54%   2.66%
    (Op.STORE, Op.LOAD, Op.PUSH),          # x = e; y op k    1.54%  10.53%
    (Op.ADD, Op.STORE, Op.JMP),            # loop back-edge   2.68%   7.51%
    (Op.STORE, Op.STORE),                  # prologue         1.51%   0.00%
    (Op.LOAD, Op.LOAD),                    # f(x, y)          3.67%   0.00%
    (Op.LOAD, Op.PUSH),                    # x op k           0.42%   5.04%
    (Op.ADD, Op.STORE),                    # x = x + f(...)   0.95%   2.14%
    (Op.LOAD, Op.MOD, Op.CALL),            # f(y, x % b)      2.40%   0.00%
    (Op.LOAD, Op.RET),                     # return x         1.89%   0.00%
    (Op.PUSH, Op.LOAD, Op.GSTOREI),        # a[x] = k         2.53%   0.00%
    (Op.LOAD, Op.GLOADI, Op.PUSH, Op.EQ),  # a[x] == k        2.19%   0.00%
)

#: First superinstruction opcode, and first opcode the dispatch loop
#: must special-case.
FUSED_MIN = len(_PLAIN_OPS)
EVENT_MIN = FUSED_MIN + len(FUSED)

#: Event opcodes: dynamic cycle costs (WORK, MCOUNT), no fast-path
#: lowering (DEFER -> reference step), or the sentinel planted one past
#: the text segment (OFFEND -> the reference fetch fault for execution
#: that falls off the end).
OP_WORK = EVENT_MIN
OP_MCOUNT = EVENT_MIN + 1
OP_DEFER = EVENT_MIN + 2
OP_OFFEND = EVENT_MIN + 3

OPCODE_INDEX: dict[Op, int] = {op: i for i, op in enumerate(_PLAIN_OPS)}
OPCODE_INDEX[Op.WORK] = OP_WORK
OPCODE_INDEX[Op.MCOUNT] = OP_MCOUNT

#: Per plain opcode or superinstruction: the instructions one dispatch
#: runs, the plain opcode of its first instruction, and its static cost
#: (summed over a run).
SIZE: tuple[int, ...] = (1,) * FUSED_MIN + tuple(map(len, FUSED))
FIRST: tuple[int, ...] = tuple(range(FUSED_MIN)) + tuple(
    OPCODE_INDEX[entry[0]] for entry in FUSED
)
COST: tuple[int, ...] = tuple(COSTS[op] for op in _PLAIN_OPS) + tuple(
    sum(COSTS[op] for op in entry) for entry in FUSED
)

#: The longest entry (``_fuse`` matches runs of two to four): under an
#: instruction budget, runs dispatch while one this long still fits.
MAX_GROUP = 4
assert max(map(len, FUSED)) == MAX_GROUP

#: Predecode's lookups, keyed by a run's plain opcodes as digits in base
#: ``_RADIX``, first member most significant.  ``_PREFIXES`` holds the
#: keys of every entry's first two members; ``_RUNS[k]`` maps the key
#: of each entry of ``k`` members to its opcode.
_RADIX = 64
assert OP_OFFEND < _RADIX
_PREFIXES: set[int] = set()
_RUNS: dict[int, dict[int, int]] = {2: {}, 3: {}, 4: {}}
for _code, _entry in enumerate(FUSED, FUSED_MIN):
    _key = 0
    for _op in _entry:
        _key = _key * _RADIX + OPCODE_INDEX[_op]
    _PREFIXES.add(_key // _RADIX ** (len(_entry) - 2))
    _RUNS[len(_entry)][_key] = _code
del _code, _entry, _key, _op

#: Opcodes whose operand is a static code address the predecoder
#: resolves to an instruction index (invalid targets lower to DEFER).
_JUMP_OPS = frozenset({Op.JMP, Op.JZ, Op.JNZ, Op.CALL})

#: Opcodes whose operand indexes a local slot: the fast handlers grow
#: the frame's locals list in place, which is only safe for
#: non-negative integer slots (negative ones must raise the reference
#: "negative local slot" error, not wrap around Python-style).
_LOCAL_OPS = frozenset({Op.LOAD, Op.STORE})

#: A cycle count no program reaches: the "no event pending" horizon.
_NO_EVENT = 1 << 62


class _HaltLoop(Exception):
    """Internal: the dispatched instruction halted the machine."""


class _Resync(Exception):
    """Internal: RET un-nested an interrupt; resume at ``addr`` after
    re-arming delivery (the event horizon must be recomputed)."""

    def __init__(self, addr: int):
        self.addr = addr


class _Unfused(Exception):
    """Internal: a member of the dispatched run would fault; its first
    instruction must run alone."""


class Predecoded:
    """One executable lowered to parallel arrays (cached on the image).

    Attributes:
        ops: per-instruction integer opcode (``OPCODE_INDEX`` order, or
            a superinstruction where a run of the table starts), plus
            the OFFEND sentinel at index ``length``.
        args: per-instruction operand; jump/call targets are pre-divided
            to instruction indices, other operands are verbatim.
        costs: per-instruction static cycle cost, summed over the run at
            a superinstruction (WORK's operand and MCOUNT's monitoring
            cost are charged by the run loop).
        length: number of real instructions (sentinel excluded).
        source: the instruction list this was decoded from, for cache
            validation by identity.
    """

    __slots__ = ("ops", "args", "costs", "length", "source")

    def __init__(self, exe: Executable):
        n = len(exe.instructions)
        ops = [0] * (n + 1)
        args: list = [None] * (n + 1)
        costs = [0] * (n + 1)
        int_pushes = True
        for i, ins in enumerate(exe.instructions):
            op = ins.op
            operand = ins.operand
            code = OPCODE_INDEX.get(op)
            if code is None:  # pragma: no cover - exhaustive enum
                code = OP_DEFER
            elif op in _JUMP_OPS:
                # Resolve static control-transfer targets to indices.
                # Targets the reference engine would fault on (or
                # TypeError on) defer, preserving message and timing.
                if (
                    not isinstance(operand, int)
                    or operand % INSTRUCTION_SIZE
                    or not 0 <= operand < n * INSTRUCTION_SIZE
                ):
                    code = OP_DEFER
                else:
                    operand = operand // INSTRUCTION_SIZE
            elif op in _LOCAL_OPS or op is Op.WORK:
                if not isinstance(operand, int) or operand < 0:
                    code = OP_DEFER
            elif op is Op.PUSH:
                if type(operand) is not int:
                    int_pushes = False
            elif operand is None and op in OPERAND_OPS:
                # GLOAD/GSTORE/COUNT with a missing operand: the
                # reference engine raises TypeError when (and only
                # when) the instruction executes.
                code = OP_DEFER
            ops[i] = code
            args[i] = operand
            costs[i] = COSTS[op]
        ops[n] = OP_OFFEND
        if int_pushes:
            _fuse(ops, costs)
        self.ops = ops
        self.args = args
        self.costs = costs
        self.length = n
        self.source = exe.instructions


def _fuse(ops: list[int], costs: list[int]) -> None:
    """Lower the runs of ``FUSED`` in ``ops`` and ``costs``, in place.

    ``saved(i)`` is the most dispatches that runs save when the text
    executes from slot ``i`` straight to its end.  Each slot takes the
    run (or none) that attains it, so whichever slot control enters at,
    the runs from there on dispatch the fewest times.  ``saved`` changes
    only at a slot whose opcode and successor's begin an entry, so one
    backward pass visits only those.  ``p1 < p2 < p3`` are the nearest
    three visited slots after ``i`` and ``s1``..``s4`` the values at the
    nearest four: ``saved(j)`` for ``i < j <= i + 4`` is the value at
    the nearest visited slot at or after ``j``.
    """
    n = len(ops) - 1
    plain = ops + [OP_OFFEND, OP_OFFEND]  # matching reads plain opcodes
    pairs = list(map(add, map(mul, ops, repeat(_RADIX, n)), islice(ops, 1, None)))
    runs2, runs3, runs4 = _RUNS[2], _RUNS[3], _RUNS[4]
    p1 = p2 = p3 = n + MAX_GROUP
    s1 = s2 = s3 = s4 = 0
    for i in reversed(list(compress(range(n), map(_PREFIXES.__contains__, pairs)))):
        saved = s1
        pick = None
        # A longer run wins a tie: its handler skips more stack traffic.
        key = pairs[i]
        run = runs2.get(key)
        if run is not None:
            s = s1 if i + 2 <= p1 else s2
            if s + 1 >= saved:
                saved, pick = s + 1, run
        key = key * _RADIX + plain[i + 2]
        run = runs3.get(key)
        if run is not None:
            s = s1 if i + 3 <= p1 else s2 if i + 3 <= p2 else s3
            if s + 2 >= saved:
                saved, pick = s + 2, run
        run = runs4.get(key * _RADIX + plain[i + 3])
        if run is not None:
            s = s1 if i + 4 <= p1 else s2 if i + 4 <= p2 else s3 if i + 4 <= p3 else s4
            if s + 3 >= saved:
                saved, pick = s + 3, run
        if pick is not None:
            ops[i] = pick
            costs[i] = COST[pick]
        p3, p2, p1 = p2, p1, i
        s4, s3, s2, s1 = s3, s2, s1, saved


def predecode(exe: Executable) -> Predecoded:
    """Lower ``exe`` once; the result is cached on the executable.

    The cache is validated by identity of the instruction list, so
    rebinding ``exe.instructions`` invalidates it.  (In-place item
    assignment does not — executables are treated as immutable after
    assembly, as everywhere else in the code base.)
    """
    cached = getattr(exe, "_predecoded", None)
    if cached is not None and cached.source is exe.instructions:
        return cached
    pre = Predecoded(exe)
    exe._predecoded = pre
    return pre


class FastCPU(CPU):
    """Drop-in replacement for :class:`CPU` with the fast run loop.

    Construction, attributes, ``step()`` (single-instruction execution,
    used by debuggers and tests), ``charge_overhead``, and
    ``stack_functions`` are all inherited — only ``run()`` is
    rewritten.  A CPU with a ``tracer`` installed falls back to
    reference stepping so ``on_call``/``on_return`` observe
    reference-exact intermediate state.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The handlers read the operands of one predecoded image.
        self._decoded: Predecoded | None = None
        self._handlers: list = []

    # -- the dispatch table -------------------------------------------------------

    def _build_handlers(self, code: list) -> list:
        """Bind one closure per plain opcode and superinstruction.

        Handlers take ``(operand, index)`` and return the next
        instruction index.  They mutate the same stack/frame/global
        objects the reference engine uses and raise the same
        :class:`MachineError` messages.  The reference helpers embed
        ``self.pc`` *after* the fall-through advance for stack and
        local-slot faults — hence ``(i + 1)`` in those formats — but
        the pre-advance pc for arithmetic and global-slot faults.
        Handlers never touch the clock; the run loop owns cycle
        accounting.

        A superinstruction's handler reads its later members' operands
        from ``code`` (the image's ``args``) and raises nothing but
        :class:`_Unfused`, before it changes any state.
        """
        isize = INSTRUCTION_SIZE
        stack = self.stack
        push = stack.append
        pop = stack.pop
        frames = self.frames
        frames_append = frames.append
        globals_ = self.globals
        counters = self.counters
        out_append = self.output.append
        max_stack = self.MAX_STACK
        max_frames = self.MAX_FRAMES
        n_instr = len(self.exe.instructions)
        cpu = self

        def underflow(i: int) -> MachineError:
            return MachineError(
                f"operand stack underflow at pc {(i + 1) * isize:#x}"
            )

        def overflow(i: int) -> MachineError:
            return MachineError(
                f"operand stack overflow at pc {(i + 1) * isize:#x}"
            )

        def h_push(a, i):
            if len(stack) >= max_stack:
                raise overflow(i)
            push(a)
            return i + 1

        def h_pop(a, i):
            try:
                pop()
            except IndexError:
                raise underflow(i) from None
            return i + 1

        def h_dup(a, i):
            try:
                v = pop()
            except IndexError:
                raise underflow(i) from None
            push(v)
            if len(stack) >= max_stack:
                raise overflow(i)
            push(v)
            return i + 1

        def h_swap(a, i):
            try:
                b, a2 = pop(), pop()
            except IndexError:
                raise underflow(i) from None
            push(b)
            push(a2)
            return i + 1

        def h_add(a, i):
            try:
                b, a2 = pop(), pop()
            except IndexError:
                raise underflow(i) from None
            push(a2 + b)
            return i + 1

        def h_sub(a, i):
            try:
                b, a2 = pop(), pop()
            except IndexError:
                raise underflow(i) from None
            push(a2 - b)
            return i + 1

        def h_mul(a, i):
            try:
                b, a2 = pop(), pop()
            except IndexError:
                raise underflow(i) from None
            push(a2 * b)
            return i + 1

        def h_div(a, i):
            try:
                b, a2 = pop(), pop()
            except IndexError:
                raise underflow(i) from None
            if b == 0:
                raise MachineError(f"division by zero at pc {i * isize:#x}")
            push(_trunc_div(a2, b))
            return i + 1

        def h_mod(a, i):
            try:
                b, a2 = pop(), pop()
            except IndexError:
                raise underflow(i) from None
            if b == 0:
                raise MachineError(f"modulo by zero at pc {i * isize:#x}")
            push(a2 - _trunc_div(a2, b) * b)
            return i + 1

        def h_neg(a, i):
            try:
                push(-pop())
            except IndexError:
                raise underflow(i) from None
            return i + 1

        def _cmp(operator):
            def h(a, i):
                try:
                    b, a2 = pop(), pop()
                except IndexError:
                    raise underflow(i) from None
                push(1 if operator(a2, b) else 0)
                return i + 1

            return h

        def h_load(a, i):
            loc = frames[-1].locals
            if len(loc) <= a:
                loc.extend([0] * (a + 1 - len(loc)))
            if len(stack) >= max_stack:
                raise overflow(i)
            push(loc[a])
            return i + 1

        def h_store(a, i):
            try:
                v = pop()
            except IndexError:
                raise underflow(i) from None
            loc = frames[-1].locals
            if len(loc) <= a:
                loc.extend([0] * (a + 1 - len(loc)))
            loc[a] = v
            return i + 1

        def h_gload(a, i):
            if not 0 <= a < len(globals_):
                raise MachineError(
                    f"global slot {a} out of range at pc {i * isize:#x}"
                )
            if len(stack) >= max_stack:
                raise overflow(i)
            push(globals_[a])
            return i + 1

        def h_gstore(a, i):
            try:
                v = pop()
            except IndexError:
                raise underflow(i) from None
            if not 0 <= a < len(globals_):
                raise MachineError(
                    f"global slot {a} out of range at pc {i * isize:#x}"
                )
            globals_[a] = v
            return i + 1

        def h_gloadi(a, i):
            try:
                slot = pop()
            except IndexError:
                raise underflow(i) from None
            if not 0 <= slot < len(globals_):
                raise MachineError(
                    f"global slot {slot} out of range at pc {i * isize:#x}"
                )
            push(globals_[slot])
            return i + 1

        def h_gstorei(a, i):
            try:
                slot = pop()
                v = pop()
            except IndexError:
                raise underflow(i) from None
            if not 0 <= slot < len(globals_):
                raise MachineError(
                    f"global slot {slot} out of range at pc {i * isize:#x}"
                )
            globals_[slot] = v
            return i + 1

        def h_jmp(t, i):
            return t

        def h_jz(t, i):
            try:
                v = pop()
            except IndexError:
                raise underflow(i) from None
            return t if v == 0 else i + 1

        def h_jnz(t, i):
            try:
                v = pop()
            except IndexError:
                raise underflow(i) from None
            return i + 1 if v == 0 else t

        def h_call(t, i):
            if len(frames) >= max_frames:
                raise MachineError(
                    f"call stack overflow ({max_frames} frames) calling "
                    f"{t * isize:#x} from {i * isize:#x}"
                )
            frames_append(Frame(return_addr=(i + 1) * isize))
            return t

        def h_calli(a, i):
            try:
                target = pop()
            except IndexError:
                raise underflow(i) from None
            if len(frames) >= max_frames:
                raise MachineError(
                    f"call stack overflow ({max_frames} frames) calling "
                    f"{target:#x} from {i * isize:#x}"
                )
            q, rem = divmod(target, isize)
            if rem or not 0 <= q < n_instr:
                raise MachineError(f"call to bad address {target:#x}")
            frames_append(Frame(return_addr=(i + 1) * isize))
            return q

        def h_ret(a, i):
            frame = frames.pop()
            if frame.interrupted:
                cpu._irq_active = False
                raise _Resync(frame.return_addr)
            ra = frame.return_addr
            if ra is None:
                raise _HaltLoop
            return ra // isize

        def h_halt(a, i):
            raise _HaltLoop

        def h_nop(a, i):
            return i + 1

        def h_out(a, i):
            try:
                out_append(pop())
            except IndexError:
                raise underflow(i) from None
            return i + 1

        def h_count(a, i):
            counters[a] += 1
            return i + 1

        # -- superinstructions: check every member, then run them all ----
        # ``full2``: one more push than the stack can take after a
        # first push (LOAD then PUSH).  Local slots are non-negative ints
        # (predecode defers the rest), so a slot past the end of the
        # locals raises IndexError, and the locals grow as LOAD or STORE
        # would grow them.
        full2 = max_stack - 1

        def grow(loc, a):
            loc.extend([0] * (a + 1 - len(loc)))

        def f_load_push_lt_jz(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            try:
                v = loc[a]
            except IndexError:
                grow(loc, a)
                v = 0
            return i + 4 if v < code[i + 1] else code[i + 3]

        def f_load_push_le_jz(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            try:
                v = loc[a]
            except IndexError:
                grow(loc, a)
                v = 0
            return i + 4 if v <= code[i + 1] else code[i + 3]

        def f_load_push_gt_jz(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            try:
                v = loc[a]
            except IndexError:
                grow(loc, a)
                v = 0
            return i + 4 if v > code[i + 1] else code[i + 3]

        def f_load_push_eq_jz(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            try:
                v = loc[a]
            except IndexError:
                grow(loc, a)
                v = 0
            return i + 4 if v == code[i + 1] else code[i + 3]

        def f_load_push_add_store(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            try:
                v = loc[a] + code[i + 1]
            except IndexError:
                grow(loc, a)
                v = code[i + 1]
            s = code[i + 3]
            try:
                loc[s] = v
            except IndexError:
                grow(loc, s)
                loc[s] = v
            return i + 4

        def f_load_push_sub_call(a, i):
            if len(stack) >= full2 or len(frames) >= max_frames:
                raise _Unfused
            loc = frames[-1].locals
            try:
                v = loc[a]
            except IndexError:
                grow(loc, a)
                v = 0
            push(v - code[i + 1])
            frames_append(Frame(return_addr=(i + 4) * isize))
            return code[i + 3]

        def f_store_load_push(a, i):
            if not 0 < len(stack) < max_stack:
                raise _Unfused
            loc = frames[-1].locals
            try:
                loc[a] = stack[-1]
            except IndexError:
                grow(loc, a)
                loc[a] = stack[-1]
            b = code[i + 1]
            try:
                stack[-1] = loc[b]
            except IndexError:
                grow(loc, b)
                stack[-1] = 0
            push(code[i + 2])
            return i + 3

        def f_add_store_jmp(a, i):
            if len(stack) < 2:
                raise _Unfused
            b = pop()
            v = pop() + b
            loc = frames[-1].locals
            s = code[i + 1]
            try:
                loc[s] = v
            except IndexError:
                grow(loc, s)
                loc[s] = v
            return code[i + 2]

        def f_store_store(a, i):
            if len(stack) < 2:
                raise _Unfused
            loc = frames[-1].locals
            v = pop()
            try:
                loc[a] = v
            except IndexError:
                grow(loc, a)
                loc[a] = v
            v = pop()
            s = code[i + 1]
            try:
                loc[s] = v
            except IndexError:
                grow(loc, s)
                loc[s] = v
            return i + 2

        def f_load_load(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            b = code[i + 1]
            top = a if a > b else b
            if len(loc) <= top:
                grow(loc, top)
            push(loc[a])
            push(loc[b])
            return i + 2

        def f_load_push(a, i):
            if len(stack) >= full2:
                raise _Unfused
            loc = frames[-1].locals
            try:
                push(loc[a])
            except IndexError:
                grow(loc, a)
                push(0)
            push(code[i + 1])
            return i + 2

        def f_add_store(a, i):
            if len(stack) < 2:
                raise _Unfused
            b = pop()
            v = pop() + b
            loc = frames[-1].locals
            s = code[i + 1]
            try:
                loc[s] = v
            except IndexError:
                grow(loc, s)
                loc[s] = v
            return i + 2

        def f_load_mod_call(a, i):
            # An unset local is 0, a zero divisor: nothing to grow.
            loc = frames[-1].locals
            b = loc[a] if a < len(loc) else 0
            if not 0 < len(stack) < max_stack or b == 0 or len(frames) >= max_frames:
                raise _Unfused
            a2 = stack[-1]
            stack[-1] = a2 - _trunc_div(a2, b) * b
            frames_append(Frame(return_addr=(i + 3) * isize))
            return code[i + 2]

        def f_load_ret(a, i):
            # Returning from the entry frame or an interrupt goes
            # through the plain RET.
            frame = frames[-1]
            ra = frame.return_addr
            if len(stack) >= max_stack or ra is None or frame.interrupted:
                raise _Unfused
            loc = frame.locals
            try:
                push(loc[a])
            except IndexError:
                grow(loc, a)
                push(0)
            frames.pop()
            return ra // isize

        def f_push_load_gstorei(a, i):
            s = code[i + 1]
            loc = frames[-1].locals
            slot = loc[s] if s < len(loc) else 0
            if len(stack) >= full2 or not 0 <= slot < len(globals_):
                raise _Unfused
            if s >= len(loc):
                grow(loc, s)
            globals_[slot] = a
            return i + 3

        def f_load_gloadi_push_eq(a, i):
            loc = frames[-1].locals
            slot = loc[a] if a < len(loc) else 0
            if len(stack) >= full2 or not 0 <= slot < len(globals_):
                raise _Unfused
            if a >= len(loc):
                grow(loc, a)
            push(1 if globals_[slot] == code[i + 2] else 0)
            return i + 4

        table = {
            Op.PUSH: h_push, Op.POP: h_pop, Op.DUP: h_dup, Op.SWAP: h_swap,
            Op.ADD: h_add, Op.SUB: h_sub, Op.MUL: h_mul,
            Op.DIV: h_div, Op.MOD: h_mod, Op.NEG: h_neg,
            Op.EQ: _cmp(lambda a, b: a == b),
            Op.NE: _cmp(lambda a, b: a != b),
            Op.LT: _cmp(lambda a, b: a < b),
            Op.LE: _cmp(lambda a, b: a <= b),
            Op.GT: _cmp(lambda a, b: a > b),
            Op.GE: _cmp(lambda a, b: a >= b),
            Op.LOAD: h_load, Op.STORE: h_store,
            Op.GLOAD: h_gload, Op.GSTORE: h_gstore,
            Op.GLOADI: h_gloadi, Op.GSTOREI: h_gstorei,
            Op.JMP: h_jmp, Op.JZ: h_jz, Op.JNZ: h_jnz,
            Op.CALL: h_call, Op.CALLI: h_calli, Op.RET: h_ret,
            Op.HALT: h_halt, Op.NOP: h_nop, Op.OUT: h_out,
            Op.COUNT: h_count,
            (Op.LOAD, Op.PUSH, Op.LT, Op.JZ): f_load_push_lt_jz,
            (Op.LOAD, Op.PUSH, Op.LE, Op.JZ): f_load_push_le_jz,
            (Op.LOAD, Op.PUSH, Op.GT, Op.JZ): f_load_push_gt_jz,
            (Op.LOAD, Op.PUSH, Op.EQ, Op.JZ): f_load_push_eq_jz,
            (Op.LOAD, Op.PUSH, Op.ADD, Op.STORE): f_load_push_add_store,
            (Op.LOAD, Op.PUSH, Op.SUB, Op.CALL): f_load_push_sub_call,
            (Op.STORE, Op.LOAD, Op.PUSH): f_store_load_push,
            (Op.ADD, Op.STORE, Op.JMP): f_add_store_jmp,
            (Op.STORE, Op.STORE): f_store_store,
            (Op.LOAD, Op.LOAD): f_load_load,
            (Op.LOAD, Op.PUSH): f_load_push,
            (Op.ADD, Op.STORE): f_add_store,
            (Op.LOAD, Op.MOD, Op.CALL): f_load_mod_call,
            (Op.LOAD, Op.RET): f_load_ret,
            (Op.PUSH, Op.LOAD, Op.GSTOREI): f_push_load_gstorei,
            (Op.LOAD, Op.GLOADI, Op.PUSH, Op.EQ): f_load_gloadi_push_eq,
        }
        return [table[op] for op in _PLAIN_OPS + FUSED]

    # -- the run loop -------------------------------------------------------------

    def run(
        self,
        max_instructions: int | None = None,
        max_cycles: int | None = None,
    ) -> "FastCPU":
        """Run until HALT or a budget is exhausted; returns self.

        Observably identical to :meth:`CPU.run` — the differential
        suite pins clocks, histograms, arc tables, stats, and error
        messages — but instructions between events dispatch through the
        predecoded handler table, a superinstruction's run at a time,
        with the clock batched against the next event horizon.
        """
        if self.tracer is not None:
            # Tracers observe per-instruction state; give them the
            # reference engine verbatim.
            return CPU.run(self, max_instructions, max_cycles)

        exe = self.exe
        pre = predecode(exe)
        if pre is not self._decoded:
            self._handlers = self._build_handlers(pre.args)
            self._decoded = pre
        ops = pre.ops
        args = pre.args
        costs = pre.costs
        n_instr = pre.length
        handlers = self._handlers
        sizes = SIZE
        first = FIRST
        cost = COST
        isize = INSTRUCTION_SIZE
        monitor = self.monitor
        has_irqs = bool(self._interrupts)
        frames = self.frames

        # Every monitor's own hooks fire from the loop: ``tick`` at each
        # elapsed tick, the monitoring routine at each MCOUNT.  The
        # arc's cost always comes from the process-local site-keyed
        # table, whose head records the loop bumps itself.
        tick = mcount = sink = stats = get_chain = None
        if monitor is not None:
            tick = monitor.tick
            mcount = monitor.mcount
            sink = monitor.arc_sink
            stats = monitor.arc_table.stats
            # The live table, read on every MCOUNT: a chain's head
            # record never moves (records are appended, never
            # reordered), so a head bump stays correct across
            # kgmon-style mid-run resets.
            get_chain = monitor.arc_table._table.get
        interval = self._tick_interval
        head_cost = MCOUNT_BASE_COST + MCOUNT_PROBE_COST

        # Local mirrors of the mutable machine registers.  ``trap``
        # holds a pc the reference engine would fault fetching; the
        # fault is raised at the point the reference engine would
        # reach it (after budget checks and interrupt delivery).
        cycles = self.cycles
        n = self.instructions_executed
        # A negative budget runs nothing, as in ``CPU.run``.
        stop_n = _NO_EVENT
        if max_instructions is not None:
            stop_n = n + max(max_instructions, 0)
        idx, rem = divmod(self.pc, isize)
        trap = None
        if rem or idx < 0 or idx > n_instr:
            trap = self.pc
            idx = 0
        ref_state = False  # True while self.* is authoritative
        c = cycles  # last attempted charge, for the halt paths
        solo = False  # a run at ``idx`` would fault part-way

        def careful(idx: int, cycles: int, n: int):
            """Execute one DEFER op via the reference ``step()``.

            Returns re-derived ``(idx, cycles, n, trap)``.
            """
            nonlocal ref_state
            self.pc = idx * isize
            self.cycles = cycles
            self.instructions_executed = n
            ref_state = True
            CPU.step(self)
            ref_state = False
            q, r = divmod(self.pc, isize)
            if r or q < 0 or q > n_instr:
                return 0, self.cycles, self.instructions_executed, self.pc
            return q, self.cycles, self.instructions_executed, None

        def fire(at: int, pc: int, cycles: int, n: int) -> tuple[int, int]:
            """Fire the ticks the instruction at index ``at`` reached, as
            ``step()`` does once it has run and charged it; returns the
            re-read ``(cycles, next tick)``.

            The registers are written back first: a tick may raise (a
            killed checkpoint flush) or read the machine and charge it
            (a stack walk, through ``charge_overhead``).
            """
            nonlocal ref_state
            self.pc = pc
            self.cycles = cycles
            self.instructions_executed = n
            ref_state = True
            at_pc = at * isize
            next_tick = self._next_tick
            while next_tick <= cycles:
                tick(at_pc)
                next_tick = self._next_tick + interval
                self._next_tick = next_tick
                cycles = self.cycles
            ref_state = False
            return cycles, next_tick

        try:
            while not self.halted:
                # Budgets, then delivery, then the deferred fetch
                # fault: the reference run()/step() ordering.
                if n >= stop_n:
                    break
                if max_cycles is not None and cycles >= max_cycles:
                    break
                if has_irqs and not self._irq_active:
                    self.pc = trap if trap is not None else idx * isize
                    self.cycles = cycles
                    self._maybe_deliver_interrupt()
                    if self._irq_active:
                        idx = self.pc // isize
                        trap = None
                if trap is not None:
                    self.pc = trap
                    self.cycles = cycles
                    self.instructions_executed = n
                    ref_state = True
                    exe.fetch(trap)  # raises the reference fetch fault
                    raise AssertionError(  # pragma: no cover
                        f"fetch accepted trap pc {trap:#x}"
                    )

                # The event horizon: the next tick or ``limit`` (an
                # interrupt falls due, the cycle budget runs out),
                # whichever comes first.  The instruction whose charge
                # reaches it runs on the fast path, then its ticks fire;
                # one that reached ``limit`` comes back up here.
                limit = _NO_EVENT
                if has_irqs and not self._irq_active:
                    limit = min(self._next_irq)
                if max_cycles is not None and max_cycles < limit:
                    limit = max_cycles
                next_tick = self._next_tick if monitor is not None else _NO_EVENT
                horizon = next_tick if next_tick < limit else limit
                if solo:
                    # A horizon at the clock sends the run's slot to the
                    # event path, which runs its first instruction alone.
                    horizon = cycles
                    solo = False
                # Runs dispatch while the longest still fits under the
                # instruction budget; below that, every run's slot goes
                # to the event path and runs one instruction at a time.
                if stop_n - n >= MAX_GROUP:
                    run_stop = stop_n - MAX_GROUP + 1
                    ev_min = EVENT_MIN
                else:
                    run_stop = stop_n
                    ev_min = FUSED_MIN

                try:
                    while n < run_stop:
                        op = ops[idx]
                        c = cycles + costs[idx]
                        if c >= horizon or op >= ev_min:
                            if op == OP_MCOUNT:
                                if monitor is None or not monitor.enabled:
                                    # Zero cost: cannot reach the horizon.
                                    n += 1
                                    idx += 1
                                    continue
                                # Commit, then price the crossing check,
                                # as step() does.
                                self_pc = idx * isize
                                frame = frames[-1]
                                ra = frame.return_addr
                                if ra is None or frame.interrupted:
                                    from_pc = chain = None
                                else:
                                    from_pc = ra - isize
                                    chain = get_chain(from_pc)
                                if chain is not None and chain[0][0] == self_pc:
                                    # §3.1's "usually one": head bump, no
                                    # scan, no allocation.
                                    chain[0][1] += 1
                                    stats.lookups += 1
                                    stats.probes += 1
                                    c = cycles + head_cost
                                    if sink is not None:
                                        sink(from_pc, self_pc)
                                else:
                                    c = cycles + mcount(from_pc, self_pc)
                                n += 1
                                idx += 1
                                if c < horizon:
                                    cycles = c
                                    continue
                                at = idx - 1
                            elif op < EVENT_MIN:
                                if op >= FUSED_MIN:
                                    # The run would reach the horizon (or
                                    # the budget): its first instruction
                                    # runs alone.
                                    op = first[op]
                                    c = cycles + cost[op]
                                at = idx
                                n += 1
                                idx = handlers[op](args[at], at)
                            elif op == OP_WORK:
                                c += args[idx]
                                n += 1
                                idx += 1
                                if c < horizon:
                                    cycles = c
                                    continue
                                at = idx - 1
                            elif op == OP_DEFER:
                                idx, cycles, n, trap = careful(idx, cycles, n)
                                break
                            else:
                                # OP_OFFEND: execution fell off the end
                                # of the text segment.  Budgets were
                                # already checked and no interrupt can
                                # be due here (cycles < limit), so the
                                # reference engine would fault fetching
                                # right now.
                                self.pc = idx * isize
                                self.cycles = cycles
                                self.instructions_executed = n
                                ref_state = True
                                exe.fetch(self.pc)  # raises
                                raise AssertionError(  # pragma: no cover
                                    f"fetch accepted pc {self.pc:#x}"
                                )
                            # The instruction at ``at`` reached the
                            # horizon.  A crossing HALT or RET fires its
                            # ticks in the handlers below.
                            cycles = c
                            if c >= next_tick:
                                cycles, next_tick = fire(at, idx * isize, c, n)
                            if cycles >= limit:
                                break
                            horizon = next_tick if next_tick < limit else limit
                            continue
                        n += sizes[op]
                        idx = handlers[op](args[idx], idx)
                        cycles = c
                except _Unfused:
                    # Nothing ran: take back the run's count.
                    n -= sizes[op]
                    solo = True
                except _HaltLoop:
                    # HALT (or RET from the entry frame) leaves the pc
                    # advanced past the halting instruction, charged,
                    # and fires its ticks with the machine halted.
                    cycles = c
                    idx += 1
                    self.halted = True
                    if c >= next_tick:
                        cycles = fire(idx - 1, idx * isize, c, n)[0]
                    break
                except _Resync as resync:
                    cycles = c
                    if c >= next_tick:
                        cycles = fire(idx, resync.addr, c, n)[0]
                    q, r = divmod(resync.addr, isize)
                    if r or q < 0 or q > n_instr:
                        trap = resync.addr
                        idx = 0
                    else:
                        idx = q
                        trap = None
                # Fall through: the charge reached ``limit``, a DEFER
                # op ran, the instruction budget ran out, or an
                # interrupt handler returned — recompute and continue.
        except BaseException:
            if not ref_state:
                # A dispatched handler faulted: the reference engine
                # leaves the pc advanced past the faulting instruction
                # and its cost uncharged.
                self.pc = (idx + 1) * isize
                self.cycles = cycles
                self.instructions_executed = n
            raise
        self.pc = trap if trap is not None else idx * isize
        self.cycles = cycles
        self.instructions_executed = n
        return self


#: Engine registry for CLIs and helpers.
ENGINES: dict[str, type[CPU]] = {"fast": FastCPU, "reference": CPU}


def make_cpu(
    exe: Executable,
    monitor: Monitor | None = None,
    interrupts=None,
    engine: str = "fast",
) -> CPU:
    """Construct the requested interpreter engine for ``exe``.

    ``fast`` (the default) is the predecoded threaded-dispatch engine;
    ``reference`` is the readable baseline.  The two are observably
    identical; ``reference`` exists as the debugging escape hatch and
    the differential-testing oracle.
    """
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise MachineError(
            f"unknown engine {engine!r} (choose from {sorted(ENGINES)})"
        ) from None
    return cls(exe, monitor, interrupts=interrupts)

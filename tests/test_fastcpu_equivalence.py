"""Differential tests: the fast interpreter is observably identical to
the reference interpreter.

The fast engine (predecode + threaded dispatch + batched clocks) is
only admissible because nothing can tell it apart from the reference
``if``/``elif`` interpreter: same cycle clock, same histogram buckets,
same arc counts and mcount statistics, byte-identical ``gmon.out``,
same error messages at the same machine states.  This suite pins that
over the whole canned corpus, targeted edge cases (interrupt delivery,
mid-WORK tick crossings, ticks crossed by HALT and RET, checkpoint
flushes killed or not, mid-run kgmon control, stack walks whose charge
reaches a delivery or a budget, sharded and global-lock SMP monitors),
and hypothesis-generated random programs.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_executable
from repro.core.histogram import Histogram
from repro.errors import MachineError
from repro.gmon import dumps_gmon
from repro.kernel import KernelSession, build_kernel_source
from repro.lang import compile_to_asm
from repro.lang.programs import REL_PROGRAMS
from repro.machine import CPU, ENGINES, FastCPU, Monitor, MonitorConfig, assemble, make_cpu
from repro.machine.cpu import InterruptSource
from repro.machine.executable import Executable, Function
from repro.machine.fastcpu import (
    EVENT_MIN,
    FUSED,
    FUSED_MIN,
    OP_DEFER,
    OP_OFFEND,
    predecode,
)
from repro.machine.isa import STACK_EFFECTS, Instruction, Op
from repro.machine.programs import PROGRAMS
from repro.machine.smp import CPUShard, GlobalLockMonitor, SMPMachine
from repro.resilience.faults import FaultInjector, InjectedFault


def machine_state(cpu):
    """Every observable of a finished (or faulted) machine."""
    return {
        "pc": cpu.pc,
        "cycles": cpu.cycles,
        "instructions": cpu.instructions_executed,
        "stack": list(cpu.stack),
        "frames": [
            (f.return_addr, list(f.locals), f.interrupted)
            for f in cpu.frames
        ],
        "globals": list(cpu.globals),
        "counters": list(cpu.counters),
        "output": list(cpu.output),
        "halted": cpu.halted,
        "irqs": cpu.interrupts_delivered,
    }


def monitor_state(mon):
    """Every observable of the profiling data and its statistics."""
    if mon is None:
        return None
    return {
        "hist": list(mon.histogram.counts),
        "arcs": mon.arc_table.arcs(),
        "lookups": mon.stats.lookups,
        "probes": mon.stats.probes,
        "collisions": mon.stats.collisions,
        "spontaneous": mon.stats.spontaneous,
        "dropped": mon.ticks_dropped,
        "gmon": dumps_gmon(mon.snapshot()),
    }


def run_both(
    source,
    profile=True,
    cycles_per_tick=100,
    scale=1.0,
    interrupts=(),
    max_instructions=None,
    max_cycles=None,
):
    """Run ``source`` on both engines; return per-engine observations."""
    results = {}
    for engine in ENGINES:
        exe = assemble(source, profile=profile)
        mon = Monitor(
            MonitorConfig(
                exe.low_pc,
                exe.high_pc,
                scale=scale,
                cycles_per_tick=cycles_per_tick,
            )
        )
        irqs = [InterruptSource(*spec) for spec in interrupts]
        cpu = make_cpu(exe, mon, interrupts=irqs, engine=engine)
        error = None
        try:
            cpu.run(max_instructions=max_instructions, max_cycles=max_cycles)
        except MachineError as exc:
            error = str(exc)
        results[engine] = (machine_state(cpu), monitor_state(mon), error)
    return results


def assert_identical(results):
    assert results["fast"] == results["reference"]


# --------------------------------------------------------------------------
# The canned corpus, across profiling geometries.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_canned_corpus_identical(name):
    source = PROGRAMS[name]()
    for profile in (True, False):
        for cycles_per_tick in (1, 7, 100):
            assert_identical(
                run_both(source, profile=profile, cycles_per_tick=cycles_per_tick)
            )


@pytest.mark.parametrize("name", ["fib", "dispatch", "codegen"])
def test_canned_corpus_identical_coarse_scale(name):
    """A non-unit scale exercises the shift/mask bucket cache."""
    assert_identical(run_both(PROGRAMS[name](), scale=0.5))
    assert_identical(run_both(PROGRAMS[name](), scale=0.3))


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("name", sorted(REL_PROGRAMS))
def test_compiled_programs_identical(name, level):
    """The compiled Rel programs, whose idioms the superinstructions
    fuse: every tick geometry, and budgets that stop inside a run."""
    asm = compile_to_asm(REL_PROGRAMS[name](), optimize_level=level)
    for cycles_per_tick in (1, 7, 100):
        assert_identical(run_both(asm, cycles_per_tick=cycles_per_tick))
    for budget in (1, 2, 3, 5, 6, 7, 1001):
        assert_identical(run_both(asm, max_instructions=budget))


# --------------------------------------------------------------------------
# Interrupts, budgets, and mid-WORK tick crossings.
# --------------------------------------------------------------------------

IRQ_PROGRAM = """
.func main
    PUSH 150
    STORE 0
loop:
    WORK 13
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

.func isr
    WORK 3
    RET
.end
"""


@pytest.mark.parametrize("period,phase", [(37, None), (100, 0), (250, 5), (53, 1)])
def test_interrupt_delivery_identical(period, phase):
    assert_identical(
        run_both(IRQ_PROGRAM, interrupts=[("isr", period, phase)])
    )


def test_two_interrupt_sources_identical():
    assert_identical(
        run_both(
            IRQ_PROGRAM,
            cycles_per_tick=50,
            interrupts=[("isr", 37, None), ("isr", 53, 10)],
        )
    )


def test_interrupt_storm_identical():
    """Deliveries due every cycle: the machine livelocks in the handler
    by design; both engines must livelock identically under a budget."""
    assert_identical(
        run_both(
            IRQ_PROGRAM,
            interrupts=[("isr", 1, 0)],
            max_instructions=2500,
        )
    )


def test_mid_work_tick_crossing_identical():
    """WORK operands straddling tick boundaries in every phase."""
    lines = ["PUSH 0", "POP"]
    for w in (1, 7, 99, 100, 101, 250, 0):
        lines.append(f"WORK {w}")
    body = "\n ".join(lines)
    source = f".func main\n {body}\n HALT\n.end\n"
    for cycles_per_tick in (1, 3, 100):
        assert_identical(run_both(source, cycles_per_tick=cycles_per_tick))


@pytest.mark.parametrize("max_instructions", [-5, -1, 0, 1, 17, 500])
def test_instruction_budget_identical(max_instructions):
    assert_identical(
        run_both(PROGRAMS["fib"](8), max_instructions=max_instructions)
    )


def test_negative_budget_after_resume_identical():
    """A negative budget runs nothing on a resumed machine either."""
    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["fib"](8), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc))
        cpu = make_cpu(exe, mon, engine=engine)
        cpu.run(max_instructions=3)
        cpu.run(max_instructions=-1)
        states[engine] = (machine_state(cpu), monitor_state(mon))
    assert states["fast"] == states["reference"]
    assert states["fast"][0]["instructions"] == 3


@pytest.mark.parametrize("max_cycles", [0, 1, 100, 777, 5000])
def test_cycle_budget_identical(max_cycles):
    assert_identical(run_both(PROGRAMS["fib"](8), max_cycles=max_cycles))


def test_budget_resume_identical():
    """Slice-wise execution (the kgmon pattern) converges identically."""
    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["codegen"](), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
        cpu = make_cpu(exe, mon, engine=engine)
        slices = 0
        while not cpu.halted:
            cpu.run(max_instructions=97)
            slices += 1
        states[engine] = (machine_state(cpu), monitor_state(mon), slices)
    assert states["fast"] == states["reference"]


def test_moncontrol_and_reset_mid_run_identical():
    """kgmon-style control between slices: off/on and reset must leave
    both engines with the same profile (the mcount fast path must not
    serve stale chain heads across a reset)."""
    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["dispatch"](60), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
        cpu = make_cpu(exe, mon, engine=engine)
        cpu.run(max_instructions=400)
        mon.moncontrol(False)
        cpu.run(max_instructions=400)
        mon.moncontrol(True)
        mon.reset()
        cpu.run()
        states[engine] = (machine_state(cpu), monitor_state(mon))
    assert states["fast"] == states["reference"]


# --------------------------------------------------------------------------
# Faulting programs: same error text, same final machine state.
# --------------------------------------------------------------------------

FAULTS = [
    ".func main\n PUSH 1\n PUSH 0\n DIV\n HALT\n.end\n",
    ".func main\n PUSH 1\n PUSH 0\n MOD\n HALT\n.end\n",
    ".func main\n POP\n HALT\n.end\n",
    ".func main\n PUSH 1\n ADD\n HALT\n.end\n",
    ".func main\n GLOAD 3\n HALT\n.end\n",
    ".globals 2\n.func main\n PUSH 5\n PUSH 9\n GSTOREI\n HALT\n.end\n",
    ".func main\n PUSH 3\n CALLI\n HALT\n.end\n",
    ".func main\n PUSH 4000\n CALLI\n HALT\n.end\n",
    ".func main\n WORK -5\n HALT\n.end\n",
    ".func main\n NOP\n NOP\n NOP\n.end\n",  # falls off the text segment
    ".func main\n CALL main\n HALT\n.end\n",  # frame overflow
]


@pytest.mark.parametrize("source", FAULTS)
def test_faults_identical(source):
    for profile in (True, False):
        for cycles_per_tick in (1, 100):
            results = run_both(
                source, profile=profile, cycles_per_tick=cycles_per_tick
            )
            assert results["fast"][2] is not None  # the fault fired
            assert_identical(results)


# --------------------------------------------------------------------------
# Predecode mechanics.
# --------------------------------------------------------------------------


def test_predecode_cached_on_executable():
    exe = assemble(PROGRAMS["fib"]())
    pre = predecode(exe)
    assert predecode(exe) is pre
    assert pre.length == len(exe.instructions)
    # sentinel guards the fall-off-the-end address
    assert pre.ops[-1] == OP_OFFEND


def test_predecode_invalidated_by_rebinding_text():
    exe = assemble(PROGRAMS["fib"]())
    pre = predecode(exe)
    exe.instructions = list(exe.instructions)
    assert predecode(exe) is not pre


def test_predecode_defers_unsafe_operands():
    exe = Executable(
        name="weird",
        instructions=[
            Instruction(Op.JMP, 6),        # misaligned target
            Instruction(Op.JZ, -4),        # negative target
            Instruction(Op.CALL, 4000),    # out-of-range target
            Instruction(Op.LOAD, -1),      # negative local slot
            Instruction(Op.WORK, -2),      # negative WORK operand
            Instruction(Op.WORK, None),    # missing operand
            Instruction(Op.JMP, 0),        # valid: resolved to an index
            Instruction(Op.HALT),
        ],
        functions=[Function("main", 0, 32)],
    )
    pre = predecode(exe)
    assert pre.ops[:6] == [OP_DEFER] * 6
    assert pre.ops[6] != OP_DEFER
    assert pre.args[6] == 0  # address 0 -> instruction index 0


def test_deferred_negative_local_slot_matches_reference():
    def build():
        return Executable(
            name="neg",
            instructions=[Instruction(Op.LOAD, -3), Instruction(Op.HALT)],
            functions=[Function("main", 0, 8)],
        )

    errors = {}
    for engine, cls in ENGINES.items():
        cpu = cls(build())
        with pytest.raises(MachineError) as exc:
            cpu.run()
        errors[engine] = (str(exc.value), machine_state(cpu))
    assert errors["fast"] == errors["reference"]
    assert "negative local slot" in errors["fast"][0]


# --------------------------------------------------------------------------
# Superinstructions: a run dispatched as one never faults part-way.
# --------------------------------------------------------------------------

#: Operand text for each member of a table entry in the programs below.
ENTRY_OPERANDS = {
    Op.LOAD: "1", Op.PUSH: "3", Op.STORE: "2",
    Op.JZ: "out", Op.JMP: "out", Op.CALL: "leaf",
}

#: ``MAX_STACK`` for the overflow cases.
SMALL_STACK = 4

#: Instructions of ``main`` and of ``run``'s set-up before the stack
#: values a case pushes (``NOP`` keeps the set-up out of any run).
SET_UP = 2 + 3


def entry_program(entry, depth, local=7, nglobals=8):
    """``main`` calls ``run``, which sets local 1 to ``local`` (an index
    into the globals too), pushes ``depth`` values, runs the entry's
    run and halts; ``leaf`` returns at once."""
    body = [f"PUSH {local}", "STORE 1", "NOP"] + ["PUSH 5"] * depth
    for op in entry:
        body.append(f"{op.value} {ENTRY_OPERANDS.get(op, '')}".rstrip())
    body += ["HALT", "out:", "HALT"]
    return (
        f".globals {nglobals}\n.func main\n CALL run\n HALT\n.end\n"
        ".func run\n " + "\n ".join(body) + "\n.end\n.func leaf\n RET\n.end\n"
    )


def stack_needs(entry):
    """The stack depth the run needs below it, and its highest depth
    relative to where it starts (a CALL or RET leaves it alone)."""
    depth = need = peak = 0
    for op in entry:
        pops, pushes = STACK_EFFECTS.get(op, (0, 0))
        need = max(need, pops - depth)
        depth += pushes - pops
        peak = max(peak, depth)
    return need, peak


def superinstruction_cases():
    """For every entry: a clean run, and a fault at each member it holds
    (underflow at each depth below its need, overflow under a small
    ``MAX_STACK``, a frame overflow, a zero divisor, a global slot out
    of range)."""
    cases = []
    for entry in FUSED:
        name = "_".join(op.value for op in entry)
        need, peak = stack_needs(entry)

        def case(label, depth=need, faults=True, **setup):
            cases.append(pytest.param(entry, depth, setup, faults, id=f"{name}-{label}"))

        case("runs", faults=False)
        for depth in range(need):
            case(f"underflow-{depth}", depth)
        for depth in range(max(need, SMALL_STACK - peak + 1), SMALL_STACK + 1):
            case(f"overflow-{depth}", depth, max_stack=SMALL_STACK)
        if Op.CALL in entry:
            case("frames", max_frames=2)
        if Op.MOD in entry:
            case("zero", local=0)
        if Op.GLOADI in entry or Op.GSTOREI in entry:
            case("global", nglobals=7)
    return cases


@pytest.mark.parametrize("entry,depth,setup,faults", superinstruction_cases())
def test_superinstruction_faults_identical(entry, depth, setup, faults, monkeypatch):
    """A run whose member would fault runs its first instruction alone,
    so the fault comes from the plain handler at the reference state;
    a run that cannot fault runs whole (or split at a tick)."""
    monkeypatch.setattr(CPU, "MAX_STACK", setup.pop("max_stack", CPU.MAX_STACK))
    monkeypatch.setattr(CPU, "MAX_FRAMES", setup.pop("max_frames", CPU.MAX_FRAMES))
    source = entry_program(entry, depth, **setup)
    slot = predecode(assemble(source)).ops[SET_UP + depth]
    assert slot == FUSED_MIN + FUSED.index(entry)
    for profile in (True, False):
        for cycles_per_tick in (1, 3, 100):
            results = run_both(
                source, profile=profile, cycles_per_tick=cycles_per_tick
            )
            assert (results["fast"][2] is not None) is faults
            assert_identical(results)


def test_load_ret_out_of_an_interrupt_identical():
    """``LOAD; RET`` out of an interrupt handler returns through the
    plain RET, which re-arms delivery."""
    source = (
        ".func main\n" + " WORK 10\n" * 40 + " HALT\n.end\n"
        ".func isr\n LOAD 0\n RET\n.end\n"
    )
    exe = assemble(source)
    isr = exe.function_named("isr").entry // 4
    assert predecode(exe).ops[isr] == FUSED_MIN + FUSED.index((Op.LOAD, Op.RET))
    for profile in (True, False):
        results = run_both(source, profile=profile, interrupts=[("isr", 37, None)])
        assert results["fast"][0]["irqs"] > 0
        assert_identical(results)


#: ``JMP mid`` enters the run ``LOAD 1; PUSH 0; GT; JZ out`` at its
#: second instruction; the back-edge ``JMP top`` enters it at its first.
JUMP_INTO_RUN = """
.func main
    PUSH 3
    STORE 1
    LOAD 1
    JMP mid
top:
    LOAD 1
mid:
    PUSH 0
    GT
    JZ out
    LOAD 1
    PUSH 1
    SUB
    STORE 1
    JMP top
out:
    HALT
.end
"""


def test_jump_into_a_run_identical():
    """Every slot keeps its own entry, so a jump into the middle of a
    run executes from there."""
    ops = predecode(assemble(JUMP_INTO_RUN)).ops
    assert ops[4] == FUSED_MIN + FUSED.index((Op.LOAD, Op.PUSH, Op.GT, Op.JZ))
    assert ops[5] == 0  # ``mid``: the plain PUSH
    for profile in (True, False):
        for cycles_per_tick in (1, 3, 100):
            results = run_both(
                JUMP_INTO_RUN, profile=profile, cycles_per_tick=cycles_per_tick
            )
            assert results["fast"][0]["halted"]
            assert_identical(results)


@pytest.mark.parametrize(
    "text",
    [
        [(Op.LOAD, 0), (Op.PUSH, None), (Op.LT, None), (Op.JZ, 0), (Op.HALT, None)],
        [(Op.PUSH, 1), (Op.PUSH, "a"), (Op.ADD, None), (Op.STORE, 0), (Op.HALT, None)],
    ],
    ids=["none-compare", "str-add"],
)
def test_predecode_fuses_nothing_beside_non_int_push(text):
    """A PUSH operand that is not an int makes a run raise TypeError
    part-way, so such an image fuses nothing and faults as the
    reference does."""

    def build():
        return Executable(
            name="mixed",
            instructions=[Instruction(op, operand) for op, operand in text],
            functions=[Function("main", 0, 4 * len(text))],
        )

    assert not any(FUSED_MIN <= code < EVENT_MIN for code in predecode(build()).ops)
    outcomes = {}
    for engine, cls in ENGINES.items():
        cpu = cls(build())
        with pytest.raises(TypeError) as exc:
            cpu.run()
        outcomes[engine] = (str(exc.value), machine_state(cpu))
    assert outcomes["fast"] == outcomes["reference"]


def test_fast_engine_registry():
    assert ENGINES["fast"] is FastCPU
    assert ENGINES["reference"] is CPU
    with pytest.raises(MachineError):
        make_cpu(assemble(PROGRAMS["fib"]()), engine="warp")


def test_tracer_falls_back_to_reference_semantics():
    """A tracer must observe reference-exact call/return sequences."""

    class Recorder:
        def __init__(self):
            self.events = []

        def on_call(self, cpu, target):
            self.events.append(("call", target, cpu.cycles))

        def on_return(self, cpu):
            self.events.append(("ret", cpu.pc, cpu.cycles))

    events = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["even_odd"](12), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
        cpu = make_cpu(exe, mon, engine=engine)
        cpu.tracer = Recorder()
        cpu.run()
        events[engine] = (cpu.tracer.events, machine_state(cpu), monitor_state(mon))
    assert events["fast"] == events["reference"]


# --------------------------------------------------------------------------
# Stack sampling (VMStackMonitor): a tick that reads and charges the CPU.
# --------------------------------------------------------------------------


def test_stack_monitor_identical():
    from repro.stacks.vm import VMStackMonitor

    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["deep"](), profile=False)
        mon = VMStackMonitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=25),
            stride=2,
        )
        cpu = make_cpu(exe, mon, engine=engine)
        mon.bind(cpu)
        cpu.run()
        states[engine] = (
            machine_state(cpu),
            monitor_state(mon),
            dict(mon.stack_profile.samples),
            mon.stack_walk_cycles,
        )
    assert states["fast"] == states["reference"]


# --------------------------------------------------------------------------
# Every monitor's events fire inside the dispatch loop, not through step().
# --------------------------------------------------------------------------


@pytest.fixture()
def step_calls(monkeypatch):
    """Count calls of the reference ``CPU.step`` (the fast engine's
    careful path) for the rest of the test."""
    calls = [0]
    step = CPU.step

    def counted(cpu):
        calls[0] += 1
        step(cpu)

    monkeypatch.setattr(CPU, "step", counted)
    return calls


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stock_ticks_never_step(name, step_calls):
    """Every elapsed tick fires, and none of them needs the reference
    step(): the crossing instruction runs on the fast path."""
    exe = assemble(PROGRAMS[name](), profile=True)
    for cycles_per_tick in (1, 7, 100):
        for scale in (1.0, 0.3):
            mon = Monitor(
                MonitorConfig(
                    exe.low_pc,
                    exe.high_pc,
                    scale=scale,
                    cycles_per_tick=cycles_per_tick,
                )
            )
            cpu = FastCPU(exe, mon)
            cpu.run()
            assert cpu.halted
            assert (
                mon.histogram.total_ticks + mon.ticks_dropped
                == cpu.cycles // cycles_per_tick
            )
    assert step_calls[0] == 0


@pytest.mark.parametrize("name", sorted(REL_PROGRAMS))
def test_stock_ticks_never_step_compiled(name, step_calls):
    asm = compile_to_asm(REL_PROGRAMS[name](), optimize_level=2)
    exe = assemble(asm, name=name, profile=True)
    mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc))
    cpu = FastCPU(exe, mon)
    cpu.run()
    assert cpu.halted and mon.histogram.total_ticks > 0
    assert step_calls[0] == 0


@pytest.mark.parametrize("period", [37, 100, 250])
def test_interrupt_runs_step_only_at_deliveries(period, step_calls):
    """Ticks stay in the loop beside interrupt sources, and so does the
    instruction that reaches a delivery's due cycle: it runs on the fast
    path, and the loop delivers at the top, as run() does."""
    exe = assemble(IRQ_PROGRAM, profile=True)
    mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc))
    cpu = FastCPU(exe, mon, interrupts=[InterruptSource("isr", period)])
    cpu.run()
    assert cpu.halted and cpu.interrupts_delivered > 0
    assert step_calls[0] == 0


def test_stack_monitor_never_steps(step_calls):
    """A monitor whose tick reads and charges the CPU fires from the
    loop too: the registers are written back before each tick."""
    from repro.stacks.vm import VMStackMonitor

    exe = assemble(PROGRAMS["deep"](), profile=False)
    mon = VMStackMonitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=25)
    )
    cpu = FastCPU(exe, mon)
    mon.bind(cpu)
    cpu.run()
    assert cpu.halted and mon.stack_walk_cycles > 0
    assert step_calls[0] == 0


def smp_merged(engine, sharding, ncpus, interrupts=None):
    """A four-process SMP run; returns its merged gmon bytes."""
    source = PROGRAMS["dispatch"](40) + "\n.func isr\n WORK 3\n RET\n.end\n"
    exe = assemble(source, profile=True)
    machine = SMPMachine(
        exe,
        ncpus,
        nprocs=4,
        engine=engine,
        sharding=sharding,
        cycles_per_tick=7,
        quantum=300,
        interrupts=interrupts,
    )
    machine.run()
    assert machine.halted and machine.total_calls() > 0
    return dumps_gmon(machine.merged_profile())


@pytest.mark.parametrize(
    "sharding,ncpus,interrupts",
    [
        pytest.param("percpu", 1, None, id="percpu-1"),
        pytest.param("percpu", 4, None, id="percpu-4"),
        pytest.param("global-lock", 4, None, id="global-lock-4"),
        pytest.param(
            "percpu", 4, [InterruptSource("isr", 53)], id="percpu-4-irq"
        ),
    ],
)
def test_smp_monitors_never_step(sharding, ncpus, interrupts, step_calls):
    """Sharded and global-lock monitors fire their ticks and arcs from
    the loop, across max_cycles quanta and interrupt deliveries."""
    reference = smp_merged("reference", sharding, ncpus, interrupts)
    step_calls[0] = 0
    assert smp_merged("fast", sharding, ncpus, interrupts) == reference
    assert step_calls[0] == 0


def test_kernel_sessions_never_step(step_calls):
    """The kernel in max_instructions slices on a stock monitor, and the
    kernel session's max_cycles quanta on two CPUs, both with device
    interrupts, the first with moncontrol and reset mid-run."""
    exe = assemble(build_kernel_source(iterations=40), profile=True)
    mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=50))
    cpu = FastCPU(exe, mon, interrupts=[InterruptSource("irq_device", 900)])
    cpu.run(max_instructions=500)
    mon.moncontrol(False)
    cpu.run(max_instructions=500)
    mon.moncontrol(True)
    mon.reset()
    while not cpu.halted:
        cpu.run(max_instructions=777)
    assert cpu.interrupts_delivered > 0
    session = KernelSession(ncpus=2, iterations=40)
    session.run_to_completion()
    assert session.halted
    assert all(p.cpu.interrupts_delivered > 0 for p in session.machine.procs)
    assert step_calls[0] == 0


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1

    def __exit__(self, *exc_info):
        self._lock.release()


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_global_lock_taken_once_per_tick_and_arc(engine):
    """The strawman's cost is one acquisition per event, on either
    engine: every tick, and every arc the monitoring routine records."""
    exe = assemble(PROGRAMS["dispatch"](40), profile=True)
    lock = CountingLock()
    mon = GlobalLockMonitor(
        MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=7), lock
    )
    shard = CPUShard(0, Histogram.for_range(exe.low_pc, exe.high_pc))
    mon.bind(shard)
    cpu = make_cpu(exe, mon, engine=engine)
    cpu.run()
    ticks = cpu.cycles // 7
    assert shard.ticks == ticks and shard.arcs.total_calls == mon.stats.lookups
    assert lock.acquired == ticks + mon.stats.lookups


#: A stack walk charges its cost through charge_overhead, which can
#: carry the clock past an interrupt's due cycle or the cycle budget
#: after the instruction itself stopped short of it: ``WORK 500`` ends
#: near cycle 506, and its ~50 seven-cycle walks (three frames each)
#: carry the clock to ~856.
WALK_PROGRAM = """
.func main
    CALL outer
    WORK 5
    HALT
.end

.func outer
    CALL inner
    RET
.end

.func inner
    WORK 500
    RET
.end

.func isr
    WORK 3
    RET
.end
"""


@pytest.mark.parametrize(
    "interrupts,max_cycles",
    [
        pytest.param([("isr", 600, None)], None, id="irq-period"),
        pytest.param([("isr", 10_000, 600)], None, id="irq-phase"),
        pytest.param([], 600, id="budget-600"),
        pytest.param([], 700, id="budget-700"),
    ],
)
def test_stack_walk_charge_reaches_event_identical(interrupts, max_cycles):
    """The loop re-reads the clock after the ticks: a walk that carries
    it past a delivery or the budget stops the slice there, as the
    reference run()/step() does."""
    from repro.stacks.vm import VMStackMonitor

    states = {}
    for engine in ENGINES:
        exe = assemble(WALK_PROGRAM, profile=False)
        mon = VMStackMonitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10)
        )
        irqs = [InterruptSource(*spec) for spec in interrupts]
        cpu = make_cpu(exe, mon, interrupts=irqs, engine=engine)
        mon.bind(cpu)
        slices = []
        budget = max_cycles
        while not cpu.halted:
            cpu.run(max_cycles=budget)
            slices.append((cpu.cycles, cpu.pc, cpu.interrupts_delivered))
            if budget is None:
                break
            budget = cpu.cycles + 600
        states[engine] = (
            slices,
            machine_state(cpu),
            monitor_state(mon),
            dict(mon.stack_profile.samples),
            mon.stack_walk_cycles,
        )
    assert states["fast"] == states["reference"]


#: Programs whose tick-crossing instruction is a control transfer the
#: fast loop finishes by exception: (source, interrupts, crossing pc).
#: All run unprofiled (no MCOUNT) at 100 cycles per tick.
CROSSING_CASES = {
    # WORK 98 ends at cycle 99; the HALT's one cycle reaches 100.
    "halt": (".func main\n WORK 98\n HALT\n.end\n", [], 0x4),
    # WORK 97 ends at 98; RET from the entry routine (3) reaches 101.
    "ret_from_entry": (".func main\n WORK 97\n RET\n.end\n", [], 0x4),
    # The handler is entered at cycle 11; its WORK 86 ends at 98 and
    # its RET back to main reaches 101.
    "ret_from_interrupt": (
        ".func main\n WORK 10\n WORK 200\n HALT\n.end\n"
        ".func isr\n WORK 86\n RET\n.end\n",
        [("isr", 1000, 5)],
        0x10,
    ),
}


@pytest.mark.parametrize("killed", [False, True], ids=["ticked", "killed"])
@pytest.mark.parametrize("case", sorted(CROSSING_CASES))
def test_crossing_control_transfer_identical(case, killed, tmp_path, step_calls):
    """A crossing HALT or RET fires its ticks at its own pc, after it
    completes; a flush killed by that tick leaves the reference state."""
    source, interrupts, crossing_pc = CROSSING_CASES[case]
    states = {}
    for engine in ENGINES:
        exe = assemble(source, profile=False)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc))
        if killed:
            mon.enable_checkpoints(
                tmp_path / f"{engine}.gmon",
                1,
                injector=FaultInjector(kill_after=11, arm_on_call=1),
            )
        irqs = [InterruptSource(*spec) for spec in interrupts]
        cpu = make_cpu(exe, mon, interrupts=irqs, engine=engine)
        calls_before = step_calls[0]
        if killed:
            with pytest.raises(InjectedFault):
                cpu.run()
        else:
            cpu.run()
        assert mon.histogram.counts[mon.histogram.bucket_for(crossing_pc)] == 1
        states[engine] = (
            machine_state(cpu),
            monitor_state(mon),
            cpu._next_tick,
        )
        if engine == "fast":
            assert step_calls[0] == calls_before
    assert states["fast"] == states["reference"]


@pytest.mark.parametrize("arm_on_call", [1, 3, 7])
@pytest.mark.parametrize("name", ["fib", "dispatch", "compute_heavy"])
def test_killed_checkpoint_flush_identical(name, arm_on_call, tmp_path):
    """A checkpoint flush killed from inside a tick: both engines raise
    and stop in the same machine state with the same histogram."""
    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS[name](), profile=True)
        mon = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=7)
        )
        mon.enable_checkpoints(
            tmp_path / f"{engine}.gmon",
            3,
            injector=FaultInjector(kill_after=11, arm_on_call=arm_on_call),
        )
        cpu = make_cpu(exe, mon, engine=engine)
        with pytest.raises(InjectedFault):
            cpu.run()
        states[engine] = (
            machine_state(cpu),
            list(mon.histogram.counts),
            mon.checkpoints_written,
            cpu._next_tick,
        )
    assert states["fast"] == states["reference"]
    assert states["fast"][2] == arm_on_call - 1


@pytest.mark.parametrize("max_instructions", [150, None])
@pytest.mark.parametrize("name", ["fib", "dispatch", "compute_heavy"])
def test_checkpoints_identical(name, max_instructions, tmp_path):
    """Periodic flushes: same count and same file bytes on both
    engines, at a mid-run stop and at the end of the run."""
    results = {}
    for engine in ENGINES:
        path = tmp_path / f"{engine}.gmon"
        exe = assemble(PROGRAMS[name](), profile=True)
        mon = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=7)
        )
        mon.enable_checkpoints(path, 3)
        cpu = make_cpu(exe, mon, engine=engine)
        cpu.run(max_instructions=max_instructions)
        results[engine] = (
            machine_state(cpu),
            mon.checkpoints_written,
            path.read_bytes(),
        )
    assert results["fast"] == results["reference"]
    assert results["fast"][1] > 0
    assert results["fast"][0]["halted"] is (max_instructions is None)


# --------------------------------------------------------------------------
# repro-check is engine-agnostic: predecode leaves lint results alone.
# --------------------------------------------------------------------------


def test_check_passes_ignore_predecode_cache():
    """GP2xx lint passes see the same program before and after the fast
    engine has predecoded (and run) it."""
    source = PROGRAMS["netcycle"]()
    exe = assemble(source, profile=True)
    before = check_executable(exe)
    # run on the fast engine: attaches the predecode cache to the image
    mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc))
    FastCPU(exe, mon).run()
    assert getattr(exe, "_predecoded", None) is not None
    after = check_executable(exe)
    assert after.diagnostics == before.diagnostics
    # and an untouched reference-engine image lints identically
    fresh = assemble(source, profile=True)
    assert check_executable(fresh).diagnostics == before.diagnostics


# --------------------------------------------------------------------------
# Hypothesis: random structured programs, random profiling geometry.
# --------------------------------------------------------------------------


@st.composite
def structured_programs(draw):
    """A terminating multi-function program with calls, loops, indirect
    dispatch, arithmetic, and WORK — the constructs whose interaction
    with ticks and events the fast engine restructures — and the
    compiler's idioms the superinstructions fuse: compare-and-branch,
    local increments, and a counted loop with its back-edge.  Local 0
    counts the function's outer loop; the idioms write locals 1-3."""
    n_funcs = draw(st.integers(2, 5))
    names = [f"fn{i}" for i in range(n_funcs)]
    funcs = []
    for i in range(n_funcs):
        body = []
        loop_count = draw(st.integers(1, 6))
        body += [f"PUSH {loop_count}", "STORE 0", "loop:"]
        for j in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from([
                "work", "arith", "call", "calli", "global", "branch", "incr", "while",
            ]))
            if kind == "branch":
                body += [
                    f"LOAD {draw(st.integers(0, 3))}",
                    f"PUSH {draw(st.integers(-3, 6))}",
                    draw(st.sampled_from(["LT", "LE", "GT", "GE", "EQ", "NE"])),
                    f"JZ skip{j}",
                    f"WORK {draw(st.integers(0, 30))}",
                    f"skip{j}:",
                ]
            elif kind == "incr":
                body += [
                    f"LOAD {draw(st.integers(0, 3))}",
                    f"PUSH {draw(st.integers(-9, 9))}",
                    draw(st.sampled_from(["ADD", "SUB"])),
                    f"STORE {draw(st.integers(1, 3))}",
                ]
            elif kind == "while":
                slot = draw(st.integers(1, 3))
                body += [
                    "PUSH 0", f"STORE {slot}", f"top{j}:",
                    f"LOAD {slot}", f"PUSH {draw(st.integers(0, 4))}", "LT", f"JZ end{j}",
                    f"WORK {draw(st.integers(0, 30))}",
                    f"LOAD {slot}", "PUSH 1", "ADD", f"STORE {slot}", f"JMP top{j}",
                    f"end{j}:",
                ]
            elif kind == "work":
                body.append(f"WORK {draw(st.integers(0, 120))}")
            elif kind == "arith":
                body += [
                    f"PUSH {draw(st.integers(-50, 50))}",
                    f"PUSH {draw(st.integers(1, 50))}",
                    draw(st.sampled_from(["ADD", "SUB", "MUL", "DIV", "MOD"])),
                    "POP",
                ]
            elif kind == "call" and i + 1 < n_funcs:
                body.append(f"CALL {draw(st.sampled_from(names[i + 1:]))}")
            elif kind == "calli" and i + 1 < n_funcs:
                body.append(f"PUSH &{draw(st.sampled_from(names[i + 1:]))}")
                body.append("CALLI")
            else:
                body += [f"PUSH {draw(st.integers(-9, 9))}", "GSTORE 0", "GLOAD 0", "POP"]
        body += ["LOAD 0", "PUSH 1", "SUB", "STORE 0", "LOAD 0", "JNZ loop"]
        if i == 0:
            body.append("GLOAD 0")
            body.append("OUT")
            body.append("HALT")
        else:
            body.append("RET")
        funcs.append(
            f".func {'main' if i == 0 else names[i]}\n "
            + "\n ".join(body)
            + "\n.end\n"
        )
    return ".globals 1\n" + "".join(funcs)


@settings(max_examples=60, deadline=None)
@given(
    structured_programs(),
    st.booleans(),
    st.sampled_from([1, 3, 7, 100]),
    st.sampled_from([1.0, 0.5]),
)
def test_random_programs_identical(source, profile, cycles_per_tick, scale):
    assert_identical(
        run_both(
            source,
            profile=profile,
            cycles_per_tick=cycles_per_tick,
            scale=scale,
            max_instructions=30_000,
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    structured_programs(),
    st.booleans(),
    st.sampled_from([1, 3, 7, 100]),
)
def test_random_programs_unbudgeted_identical(source, profile, cycles_per_tick):
    """No instruction budget, so runs dispatch whole up to the halt; the
    programs terminate, and the cycle budget only bounds a long one."""
    assert_identical(
        run_both(
            source,
            profile=profile,
            cycles_per_tick=cycles_per_tick,
            max_cycles=150_000,
        )
    )


@settings(max_examples=30, deadline=None)
@given(
    structured_programs(),
    st.integers(11, 400),
    st.sampled_from([None, 0, 3]),
)
def test_random_programs_with_interrupts_identical(source, period, phase):
    source = source + "\n.func hyp_isr\n WORK 2\n RET\n.end\n"
    assert_identical(
        run_both(
            source,
            cycles_per_tick=10,
            interrupts=[("hyp_isr", period, phase)],
            max_instructions=30_000,
        )
    )

"""Call-stack sampling for VM programs.

At each profiling tick the monitor walks the interpreter's frame chain
— the return addresses "all the way up the stack, a convention imposed
in order to debug programs" — and records the complete routine chain.
Unlike ``mcount``, nothing is charged per *call*; the cost is per
*sample*, and "can be hidden by backing off the frequency" (the
``stride`` knob: capture a stack only every N-th histogram tick).

:class:`VMStackMonitor` extends the classic monitor, so one run can
gather classic gprof data *and* stacks — which is exactly what the
comparison benchmarks need.
"""

from __future__ import annotations

from repro.machine.monitor import Monitor, MonitorConfig
from repro.stacks.profile import StackProfile

#: Simulated cycles charged to the program per stack capture…
STACK_WALK_BASE_COST = 4
#: …plus per frame walked (reading a saved return address).
STACK_WALK_FRAME_COST = 1


class VMStackMonitor(Monitor):
    """A monitor that additionally samples complete call stacks.

    Arguments:
        config: the usual monitor configuration (histogram + clock).
        stride: capture a stack every ``stride``-th tick (1 = every
            tick).  Larger strides trade sample count for overhead —
            the retrospective's frequency back-off, made explicit.
    """

    def __init__(self, config: MonitorConfig, stride: int = 1):
        super().__init__(config)
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        self.stack_profile = StackProfile(profrate=max(config.profrate // stride, 1))
        self.stack_walk_cycles = 0
        self._cpu = None
        self._tick_no = 0

    def bind(self, cpu) -> None:
        """Attach the CPU whose frames will be walked (call before run)."""
        self._cpu = cpu

    def tick(self, pc: int) -> None:
        """Histogram tick plus (every ``stride``-th time) a stack walk.

        The walk's cost is charged to the running program's cycle clock
        — that is the "additional overhead" the stride amortizes.
        """
        super().tick(pc)
        if not self.enabled or self._cpu is None:
            return
        self._tick_no += 1
        if self._tick_no % self.stride:
            return
        stack = self._cpu.stack_functions()
        if stack:
            self.stack_profile.record(stack)
            cost = STACK_WALK_BASE_COST + STACK_WALK_FRAME_COST * len(stack)
            self._cpu.charge_overhead(cost)
            self.stack_walk_cycles += cost

    def reset(self) -> None:
        """Zero histogram, arcs, and stacks (kgmon-compatible)."""
        super().reset()
        self.stack_profile = StackProfile(self.stack_profile.profrate)


def run_stack_profiled(
    source: str,
    name: str = "a.out",
    cycles_per_tick: int = 100,
    stride: int = 1,
    profrate: int = 60,
):
    """Assemble, run, and stack-sample a program in one call.

    Returns ``(cpu, stack_profile)``.  The program is assembled
    *without* mcount prologues: stack sampling needs no compiler
    support at all, one of the modern design's advantages.
    """
    from repro.machine.assembler import assemble
    from repro.machine.fastcpu import FastCPU

    exe = assemble(source, name=name, profile=False)
    monitor = VMStackMonitor(
        MonitorConfig(
            exe.low_pc,
            exe.high_pc,
            cycles_per_tick=cycles_per_tick,
            profrate=profrate,
        ),
        stride=stride,
    )
    # The fast engine fires each tick's walk from its own loop, with the
    # registers written back first and the walk's charge re-read after,
    # so samples and charged walk costs match a reference-engine run.
    cpu = FastCPU(exe, monitor)
    monitor.bind(cpu)
    cpu.run()
    return cpu, monitor.stack_profile

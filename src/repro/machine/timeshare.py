"""The rejected elapsed-time profiler, and why gprof samples instead.

§3.2 gives two ways to gather execution times and rejects the first:

    "One method measures the execution time of a routine by measuring
    the elapsed time from routine entry to routine exit.  Unfortunately,
    time measurement is complicated on time-sharing systems by the
    time-slicing of the program.  A second method samples the value of
    the program counter at some interval ... particularly suited to
    time-sharing systems, where the time-slicing can serve as the basis
    for sampling the program counter."

This module reproduces that argument as an experiment.  An
:class:`ElapsedTimeProfiler` implements the rejected method — stamping
routine entry and exit with the wall clock — and systematically
over-reports routines that happen to be live across a context switch.
The time-shared machine is :class:`~repro.machine.smp.SMPMachine` with
one CPU and the ``rr`` policy: its processes take turns, each
:class:`~repro.machine.smp.Process` offers its view of the wall clock,
and the sampling monitor, ticking on the process's *own* cycle clock,
is unaffected.  ``benchmarks/bench_timesharing.py`` quantifies the
difference, and ``tests/smp_golden.py`` measures the same bias as the
machine grows wider.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cpu import CPU


@dataclass
class ElapsedTimeProfiler:
    """The paper's rejected method: wall-clock entry-to-exit timing.

    Installed as a CPU's ``tracer``; ``clock`` is a zero-argument
    callable returning the current *wall* time (an SMP process's
    :meth:`~repro.machine.smp.Process.wall_clock`).  Each routine
    accumulates the wall time between its entry and its exit —
    including any slices the scheduler gave to other processes in
    between, which is precisely the method's flaw.

    Attributes:
        inclusive_wall: routine name → total wall cycles between entry
            and exit, summed over activations.
        activations: routine name → number of completed activations.
    """

    clock: callable
    inclusive_wall: dict[str, int] = field(default_factory=dict)
    activations: dict[str, int] = field(default_factory=dict)
    _stack: list[tuple[str, int]] = field(default_factory=list)

    def on_call(self, cpu: CPU, target: int) -> None:
        fn = cpu.exe.function_at(target)
        name = fn.name if fn else f"<0x{target:x}>"
        self._stack.append((name, self.clock()))

    def on_return(self, cpu: CPU) -> None:
        if not self._stack:
            return
        name, start = self._stack.pop()
        self.inclusive_wall[name] = (
            self.inclusive_wall.get(name, 0) + self.clock() - start
        )
        self.activations[name] = self.activations.get(name, 0) + 1

    def mean_wall(self, name: str) -> float:
        """Average wall cycles per activation of ``name``."""
        n = self.activations.get(name, 0)
        return self.inclusive_wall.get(name, 0) / n if n else 0.0

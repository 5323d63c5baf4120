"""kgmon: the programmer's interface for live kernel profiling.

"Unlike user programs that could be run to completion, dump their
profiling data to a file, and exit, we had to be able to profile events
of interest in the kernel without taking the kernel down. ... The
programmer's interface allowed us to turn the profiler on and off,
extract the profiling data, and reset the data." (retrospective)

:class:`KernelSession` owns a running simulated kernel on an
:class:`~repro.machine.smp.SMPMachine` of ``ncpus`` CPUs (one by
default): each core runs the kernel workload as its own process, and
profiling events land in per-CPU shards without cross-CPU locking.  The
kernel executes in slices of scheduling rounds (one cycle quantum per
CPU each), standing in for a kernel that keeps serving users between
control operations.  :class:`Kgmon` is the control tool: ``on`` /
``off`` / ``extract`` / ``reset`` / ``checkpoint`` / ``status``, all
usable while the kernel keeps running.

An extraction merges the shards through the fleet algebra into one
canonical profile, whose bytes do not depend on the CPU count or the
slice schedule.  A reset clears shard data but never a process's §3.1
cost table, so windows partition the run exactly: their merge is the
uninterrupted run's profile, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiledata import ProfileData
from repro.core.symbols import SymbolTable
from repro.errors import KernelError
from repro.kernel.build import build_kernel_source
from repro.machine.assembler import assemble
from repro.machine.cpu import InterruptSource
from repro.machine.executable import Executable
from repro.machine.smp import SMPMachine, reduce_shards


class KernelSession:
    """A live simulated kernel on an N-CPU machine.

    Each CPU executes the kernel workload as its own process (the
    shared-text, per-core-state shape of a real SMP kernel); profiling
    events are gathered into per-CPU shards.

    Arguments:
        ncpus: simulated CPU count.
        iterations: scheduling quanta each core's main loop executes.
        cycles_per_tick, profrate: profiling clock configuration.
        policy, seed, quantum: slice scheduler configuration (the
            merged profile's bytes do not depend on them).
        engine: interpreter engine (``fast`` default).
        device_interrupts, irq_period: device interrupts dispatch
            ``irq_device`` with no call site, so its arcs show up as
            <spontaneous> (§3.1's non-standard calling sequence, live);
            each core takes them on its own clock.
        **build_kw: forwarded to
            :func:`repro.kernel.build.build_kernel_source`.
    """

    def __init__(
        self,
        ncpus: int = 1,
        iterations: int = 400,
        cycles_per_tick: int = 50,
        profrate: int = 100,
        policy: str = "rr",
        seed: int = 0,
        quantum: int = 2000,
        engine: str = "fast",
        device_interrupts: bool = True,
        irq_period: int = 900,
        **build_kw,
    ):
        source = build_kernel_source(iterations=iterations, **build_kw)
        self.executable: Executable = assemble(source, name="kernel", profile=True)
        interrupts = (
            [InterruptSource("irq_device", irq_period)]
            if device_interrupts
            else []
        )
        self.machine = SMPMachine(
            self.executable,
            ncpus=ncpus,
            nprocs=ncpus,
            policy=policy,
            seed=seed,
            quantum=quantum,
            engine=engine,
            cycles_per_tick=cycles_per_tick,
            profrate=profrate,
            interrupts=interrupts,
        )

    def run_slice(self, rounds: int = 8) -> bool:
        """Execute scheduling rounds; returns True while any core lives."""
        return self.machine.run_rounds(rounds)

    def run_to_completion(self) -> None:
        """Let every core finish its workload."""
        self.machine.run()

    @property
    def halted(self) -> bool:
        """Whether every core's workload has finished."""
        return self.machine.halted

    def symbol_table(self) -> SymbolTable:
        """The kernel's symbol table (for analyzing extracted data)."""
        return self.executable.symbol_table()


@dataclass
class KgmonStatus:
    """What ``kgmon status`` reports.

    Attributes:
        enabled: whether the profiler is currently gathering.
        ticks: PC samples accumulated since the last reset.
        arcs: distinct (call site, callee) pairs recorded, on any CPU.
        calls: total arc traversals recorded.
        kernel_cycles: the machine's wall clock (keeps advancing even
            with profiling off — the system never stops).
        halted: whether the kernel workload has finished.
    """

    enabled: bool
    ticks: int
    arcs: int
    calls: int
    kernel_cycles: int
    halted: bool


class Kgmon:
    """The kgmon control tool, bound to one kernel session."""

    def __init__(self, session: KernelSession):
        self.session = session

    def on(self) -> None:
        """Start (or resume) profiling on every CPU."""
        self.session.machine.moncontrol(True)

    def off(self) -> None:
        """Stop profiling; the kernel keeps running at full speed."""
        self.session.machine.moncontrol(False)

    def reset(self) -> None:
        """Zero every CPU's shard without stopping anything."""
        for shard in self.session.machine.shards:
            shard.reset()

    def extract(
        self, comment: str = "kgmon extract", reset: bool = False
    ) -> ProfileData:
        """The merged profile gathered so far (one canonical gmon).

        The kernel is untouched: extraction copies the shards, which
        keep accumulating unless ``reset`` clears them.  ``runs`` in the
        result is the process count, never the shard count, so
        extractions from machines of different widths stay
        byte-comparable.
        """
        machine = self.session.machine
        if all(p.cpu.instructions_executed == 0 for p in machine.procs):
            raise KernelError("kernel has not run yet; nothing to extract")
        parts = machine.extract(reset=reset)
        return reduce_shards(parts, comment=comment, runs=len(machine.procs))

    def checkpoint(
        self, path, comment: str = "kgmon checkpoint", injector=None
    ) -> ProfileData:
        """Flush the merged profile to ``path`` crash-safely, while running.

        A kernel cannot be re-run to recover a lost profile; the
        checkpoint is an atomic write (temp file + rename), so a machine
        going down mid-flush still leaves the previous complete snapshot
        at ``path``.  Returns the flushed data.  ``injector`` threads
        the fault-injection harness through the write (tests only).
        """
        from repro.gmon import write_gmon

        data = self.extract(comment)
        write_gmon(data, path, injector=injector)
        return data

    def status(self) -> KgmonStatus:
        """Aggregate monitor and machine state across all CPUs."""
        machine = self.session.machine
        enabled = any(
            p.monitor is not None and p.monitor.enabled for p in machine.procs
        )
        arcs = {
            (arc.from_pc, arc.self_pc)
            for shard in machine.shards
            for arc in shard.arcs.arcs()
        }
        return KgmonStatus(
            enabled=enabled,
            ticks=machine.total_ticks(),
            arcs=len(arcs),
            calls=machine.total_calls(),
            kernel_cycles=machine.wall_cycles,
            halted=machine.halted,
        )

"""The multi-CPU machine: sharded kernel-style profiling under real
interleaving.

The retrospective's hardest scenario — profiling a live Berkeley kernel
"without taking the kernel down" — only gets interesting once several
CPUs are executing at once.  This module scales the simulation to N
CPUs the way the real kernels did:

* **Per-CPU shards.**  Each simulated CPU owns a :class:`CPUShard`: a
  histogram bucket array plus a bare arc buffer
  (:class:`~repro.machine.mcount.ArcBuffer`).  A profiling event —
  a PC sample at a clock tick, an arc traversal in the monitoring
  routine — is recorded into the shard of the CPU executing the
  process *at that moment*: each dispatch re-aims the process's
  :class:`ShardedMonitor` at the CPU's shard, whose histogram takes the
  ticks and whose buffer the monitor's ``arc_sink`` feeds.  Both engines
  fire these hooks from their own dispatch loops.  A shard is touched
  by exactly one CPU, so the hot path takes no cross-CPU lock (the
  :class:`GlobalLockMonitor` strawman quantifies what one would cost).

* **Deterministic virtual time.**  Every process keeps its own cycle
  clock, and everything charged to it is a function of process-local
  state only: instruction costs are static, and the monitoring
  routine's lookup cost is charged from the process's *private*
  :class:`~repro.machine.mcount.ArcTable` (its chains model the
  per-process mcount hash structure, which — like the kernel's
  ``froms``/``tos`` arrays — persists across kgmon resets).  The data
  recorded into the shard is merely ``(site, callee) += 1``.  Hence a
  process executes the identical instruction stream, with identical
  tick placement and identical arcs, on 1 CPU or 8, under any slice
  schedule — only the *partition* of its events across shards changes.

* **Merge = fleet algebra.**  :func:`reduce_shards` folds shard
  snapshots through the proven
  :class:`~repro.fleet.accumulator.ProfileAccumulator` and then
  canonicalizes the header fields a shard count would leak into
  (``runs``, ``comment``).  Because the union of events is
  schedule-independent and the accumulator is order-canonical, the
  merged ``gmon`` bytes are identical for any CPU count, seed, and
  scheduling policy — the property the determinism battery
  (``tests/test_smp_determinism.py``) turns into a gate.

* **Live extraction.**  :meth:`SMPMachine.extract` snapshots (and
  optionally clears) every shard between scheduling rounds without
  stopping the machine — the kgmon workflow under concurrency.
  Because resets clear shard *data* but never a process's private cost
  table, extracted-plus-residual shards merge to byte-for-byte the
  same profile an uninterrupted run produces
  (``tests/test_smp_chaos.py`` sweeps every boundary).

The wall clock models N CPUs advancing together: each scheduling round
dispatches at most one process per CPU, and the wall advances by the
*maximum* cycles any CPU consumed that round — stragglers make the
round longer for everyone, which is exactly the effect that inflates
the §3.2 rejected elapsed-time measurement as the machine grows
(``tests/test_smp_bias.py``).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.core.histogram import DEFAULT_PROFRATE, Histogram
from repro.core.profiledata import ProfileData
from repro.errors import MachineError
from repro.fleet.accumulator import ProfileAccumulator
from repro.machine.cpu import CPU, InterruptSource
from repro.machine.executable import Executable
from repro.machine.fastcpu import make_cpu
from repro.machine.mcount import ArcBuffer
from repro.machine.monitor import Monitor, MonitorConfig

#: Scheduling policies understood by :class:`SliceScheduler`.
POLICIES = ("rr", "random", "affinity", "skew")


# ------------------------------------------------------------------ shards


@dataclass
class CPUShard:
    """One CPU's private profiling buffers.

    Attributes:
        index: the owning CPU number.
        histogram: PC-sample buckets (same layout on every shard, so
            shards merge bucket-by-bucket).
        arcs: the per-CPU arc buffer.
        ticks: samples recorded into this shard since the last reset.
        extractions: how many times this shard has been snapshotted.
    """

    index: int
    histogram: Histogram
    arcs: ArcBuffer = field(default_factory=ArcBuffer)
    ticks: int = 0
    extractions: int = 0

    def snapshot(self, comment: str = "") -> ProfileData:
        """An independent copy of this shard's data as a ProfileData."""
        self.extractions += 1
        return ProfileData(
            self.histogram.copy(),
            self.arcs.arcs(),
            runs=1,
            comment=comment,
        )

    def reset(self) -> None:
        """Zero the histogram and drop the arc buffer, in place.

        In-place so that monitors already bound to this shard keep
        recording into it — the kgmon reset never stops the machine.
        """
        self.histogram.reset()
        self.arcs.reset()
        self.ticks = 0


def reduce_shards(
    parts: list[ProfileData], comment: str = "", runs: int = 1
) -> ProfileData:
    """Merge shard snapshots into one canonical profile.

    The summation is the :mod:`repro.fleet` accumulator algebra — the
    same code path that merges thousands of ``gmon`` files — so the
    result is condensed and arc-sorted.  ``runs`` and ``comment`` are
    then pinned explicitly: a shard count or per-shard label must never
    leak into the wire bytes, or profiles taken on different CPU counts
    could not be byte-identical.
    """
    acc = ProfileAccumulator()
    for part in parts:
        acc.add_profile(part)
    merged = acc.result()
    return ProfileData(
        merged.histogram, merged.arcs, runs=runs, comment=comment
    )


# ---------------------------------------------------------------- monitors


class ShardedMonitor(Monitor):
    """A per-process monitor that records into the executing CPU's shard.

    :meth:`bind` re-aims it at the current shard on every dispatch: the
    inherited tick path writes into ``self.histogram``, and
    ``arc_sink`` copies each arc into the shard's buffer.  The §3.1
    lookup *cost* — and the per-process probe statistics — still come
    from ``self.arc_table``, the inherited private table, which survives
    kgmon resets like the kernel's statically allocated mcount arrays.
    That keeps process virtual time independent of the CPU and of the
    extraction schedule.
    """

    def __init__(self, config: MonitorConfig):
        super().__init__(config)
        self._shard: CPUShard | None = None

    def bind(self, shard: CPUShard) -> None:
        """Aim tick and arc recording at ``shard`` (dispatch time)."""
        self._shard = shard
        self.rebind_histogram(shard.histogram)
        self.arc_sink = self._arc_sink(shard)

    def _arc_sink(self, shard: CPUShard):
        """The monitoring routine's copy of each arc: the shard's buffer."""
        return shard.arcs.record

    @property
    def shard(self) -> CPUShard | None:
        """The currently bound shard (None before first dispatch)."""
        return self._shard

    def tick(self, pc: int) -> None:
        shard = self._shard
        if shard is not None and self.enabled:
            shard.ticks += 1
        super().tick(pc)

    def snapshot(self, comment: str = "") -> ProfileData:
        raise MachineError(
            "a sharded monitor has no per-process profile; extract the "
            "machine's shards (SMPMachine.extract / merged_profile)"
        )

    def reset(self) -> None:
        raise MachineError(
            "shards are reset through the machine (SMPMachine.extract "
            "with reset=True), not through a process monitor"
        )


class GlobalLockMonitor(ShardedMonitor):
    """The strawman: one shared shard, one lock, taken per event.

    Every tick and every arc copied into the single machine-wide buffer
    acquires a real ``threading.Lock`` — what a naive SMP port of the §3
    data gathering would do.  The recorded *data* is identical to the
    sharded layout's merge (the byte-identity gate in
    ``benchmarks/bench_smp.py`` checks exactly that); only the cost
    differs, which is the point of the T-SMP benchmark's
    sharded-vs-global-lock comparison.
    """

    def __init__(self, config: MonitorConfig, lock: threading.Lock):
        super().__init__(config)
        self._lock = lock

    def _arc_sink(self, shard: CPUShard):
        lock = self._lock
        record = shard.arcs.record

        def locked_record(from_pc: int | None, self_pc: int) -> None:
            with lock:
                record(from_pc, self_pc)

        return locked_record

    def tick(self, pc: int) -> None:
        with self._lock:
            super().tick(pc)


# --------------------------------------------------------------- scheduler


class SliceScheduler:
    """A deterministic seeded slice scheduler.

    Given the round number, the runnable process ids, and the CPU
    count, :meth:`plan` returns ``(pid, cpu, quantum)`` triples — at
    most one process per CPU per round.  All randomness comes from one
    seeded :class:`random.Random`, so a (policy, seed) pair replays the
    identical schedule forever; the determinism battery's claim is the
    stronger one that the merged profile does not depend on the
    schedule at all.

    Policies:

    * ``rr`` — rotate the runnable queue across CPUs, fixed quantum;
    * ``random`` — seeded random process choice and quantum jitter in
      ``[quantum // 2, 2 * quantum]``;
    * ``affinity`` — processes prefer their home CPU (``pid % ncpus``)
      and occasionally migrate (seeded), fixed quantum;
    * ``skew`` — round-robin placement, but each slice's quantum is
      drawn from ``[quantum // 4, 2 * quantum]`` — per-CPU skew, the
      straggler workload for the elapsed-time bias experiment.
    """

    #: Probability per round that the affinity policy migrates one
    #: process off its home CPU.
    MIGRATE_PROB = 0.15

    def __init__(self, policy: str = "rr", seed: int = 0, quantum: int = 500):
        if policy not in POLICIES:
            raise MachineError(
                f"unknown scheduling policy {policy!r} "
                f"(choose from {', '.join(POLICIES)})"
            )
        if quantum <= 0:
            raise MachineError(f"quantum must be positive, got {quantum}")
        self.policy = policy
        self.seed = seed
        self.quantum = quantum
        self._rng = random.Random(seed)

    def plan(
        self, round_index: int, runnable: list[int], ncpus: int
    ) -> list[tuple[int, int, int]]:
        """The (pid, cpu, quantum) dispatch list for one round."""
        if not runnable:
            return []
        k = min(ncpus, len(runnable))
        rng = self._rng
        q = self.quantum
        if self.policy == "rr":
            start = (round_index * ncpus) % len(runnable)
            return [
                (runnable[(start + j) % len(runnable)], j, q)
                for j in range(k)
            ]
        if self.policy == "random":
            chosen = rng.sample(runnable, k)
            return [
                (pid, j, rng.randint(max(1, q // 2), 2 * q))
                for j, pid in enumerate(chosen)
            ]
        if self.policy == "skew":
            start = (round_index * ncpus) % len(runnable)
            return [
                (
                    runnable[(start + j) % len(runnable)],
                    j,
                    rng.randint(max(1, q // 4), 2 * q),
                )
                for j in range(k)
            ]
        # affinity: fill home CPUs first, spill the rest, rarely migrate.
        assignment: dict[int, int] = {}
        spill: list[int] = []
        for pid in runnable:
            home = pid % ncpus
            if home not in assignment:
                assignment[home] = pid
            else:
                spill.append(pid)
        free = [c for c in range(ncpus) if c not in assignment]
        for pid in spill:
            if not free:
                break
            assignment[free.pop(0)] = pid
        if len(assignment) > 1 and rng.random() < self.MIGRATE_PROB:
            a, b = rng.sample(sorted(assignment), 2)
            assignment[a], assignment[b] = assignment[b], assignment[a]
        return [(pid, cpu, q) for cpu, pid in sorted(assignment.items())]


# ----------------------------------------------------------------- machine


@dataclass
class Process:
    """One schedulable execution context on the SMP machine.

    Attributes:
        pid: process id (index into the machine's process table).
        cpu: the interpreter holding this process's machine state.
        monitor: the per-process sharded monitor (None if unprofiled).
        wall_base: offset such that ``wall_base + cpu.cycles`` is this
            process's view of the wall clock during its current slice.
        last_cpu: CPU the process last ran on (for migration counting).
        slices: slices this process has been dispatched.
    """

    pid: int
    cpu: CPU
    monitor: ShardedMonitor | None
    wall_base: int = 0
    last_cpu: int | None = None
    slices: int = 0

    def wall_clock(self) -> int:
        """This process's view of the wall clock (for tracers)."""
        return self.wall_base + self.cpu.cycles


class SMPMachine:
    """N simulated CPUs executing M processes of one program image.

    Like a multiprocessor running one kernel text: every process shares
    the executable (and its predecode cache), but owns its full machine
    state — stack, frames, globals, output, cycle clock — and its own
    profiling virtual time.  Profiling data is gathered into per-CPU
    shards and merged through :func:`reduce_shards`.

    Arguments:
        exe: the (profiled, for monitoring) program image.
        ncpus: number of simulated CPUs.
        nprocs: number of process instances (defaults to ``ncpus``).
            The workload is defined by ``nprocs`` alone — running the
            same processes on a different CPU count yields the same
            merged profile, byte for byte.
        policy, seed, quantum: scheduler configuration.
        engine: interpreter engine per process (``fast``/``reference``).
        profile: attach sharded monitors (requires a profiled image).
        cycles_per_tick, scale, profrate: monitor geometry, as for
            :class:`~repro.machine.monitor.MonitorConfig`.
        interrupts: optional per-process interrupt sources.
        sharding: ``"percpu"`` (the real layout) or ``"global-lock"``
            (the strawman: every CPU funnels into shard 0 behind one
            lock).
    """

    def __init__(
        self,
        exe: Executable,
        ncpus: int = 2,
        nprocs: int | None = None,
        *,
        policy: str = "rr",
        seed: int = 0,
        quantum: int = 500,
        engine: str = "fast",
        profile: bool = True,
        cycles_per_tick: int = 100,
        scale: float = 1.0,
        profrate: int = DEFAULT_PROFRATE,
        interrupts: list[InterruptSource] | None = None,
        sharding: str = "percpu",
    ):
        if ncpus < 1:
            raise MachineError(f"need at least one CPU, got {ncpus}")
        nprocs = ncpus if nprocs is None else nprocs
        if nprocs < 1:
            raise MachineError(f"need at least one process, got {nprocs}")
        if sharding not in ("percpu", "global-lock"):
            raise MachineError(
                f"unknown sharding {sharding!r} "
                "(choose percpu or global-lock)"
            )
        if profile and not exe.profiled:
            raise MachineError(
                "image was assembled without profiling prologues; "
                "re-assemble with profile=True"
            )
        self.exe = exe
        self.ncpus = ncpus
        self.sharding = sharding
        self.scheduler = SliceScheduler(policy, seed, quantum)
        self.shards = [
            CPUShard(
                i, Histogram.for_range(exe.low_pc, exe.high_pc, scale, profrate)
            )
            for i in range(ncpus if sharding == "percpu" else 1)
        ]
        lock = threading.Lock() if sharding == "global-lock" else None
        self.procs: list[Process] = []
        for pid in range(nprocs):
            monitor = None
            if profile:
                config = MonitorConfig(
                    exe.low_pc,
                    exe.high_pc,
                    scale=scale,
                    cycles_per_tick=cycles_per_tick,
                    profrate=profrate,
                )
                if lock is not None:
                    monitor = GlobalLockMonitor(config, lock)
                else:
                    monitor = ShardedMonitor(config)
            irqs = list(interrupts) if interrupts else None
            self.procs.append(
                Process(pid, make_cpu(exe, monitor, irqs, engine=engine), monitor)
            )
        self.wall_cycles = 0
        self.rounds = 0
        self.context_switches = 0
        self.migrations = 0

    # -- scheduling ---------------------------------------------------------

    def runnable(self) -> list[Process]:
        """Processes that have not halted."""
        return [p for p in self.procs if not p.cpu.halted]

    @property
    def halted(self) -> bool:
        """True once every process has run to completion."""
        return all(p.cpu.halted for p in self.procs)

    def step_round(self) -> bool:
        """Execute one scheduling round; False when nothing is runnable.

        Each CPU runs its assigned process for the planned quantum;
        conceptually the slices are simultaneous, so the wall clock
        advances by the *largest* per-CPU consumption of the round.
        """
        runnable = self.runnable()
        if not runnable:
            return False
        plan = self.scheduler.plan(
            self.rounds, [p.pid for p in runnable], self.ncpus
        )
        longest = 0
        for pid, cpu_index, quantum in plan:
            proc = self.procs[pid]
            if proc.cpu.halted:
                continue
            shard = self.shards[cpu_index if self.sharding == "percpu" else 0]
            if proc.monitor is not None:
                proc.monitor.bind(shard)
            proc.wall_base = self.wall_cycles - proc.cpu.cycles
            before = proc.cpu.cycles
            proc.cpu.run(max_cycles=before + quantum)
            used = proc.cpu.cycles - before
            if used > longest:
                longest = used
            if proc.last_cpu is not None and proc.last_cpu != cpu_index:
                self.migrations += 1
            proc.last_cpu = cpu_index
            proc.slices += 1
            self.context_switches += 1
        self.wall_cycles += longest
        self.rounds += 1
        return True

    def run_rounds(self, rounds: int) -> bool:
        """Run up to ``rounds`` scheduling rounds; True while alive."""
        for _ in range(rounds):
            if not self.step_round():
                return False
        return not self.halted

    def run(
        self,
        max_rounds: int | None = None,
        max_wall_cycles: int | None = None,
    ) -> "SMPMachine":
        """Run every process to completion (or a budget); returns self."""
        while not self.halted:
            if max_rounds is not None and self.rounds >= max_rounds:
                break
            if (
                max_wall_cycles is not None
                and self.wall_cycles >= max_wall_cycles
            ):
                break
            self.step_round()
        return self

    # -- profiling control (the kgmon surface) ------------------------------

    def moncontrol(self, enabled: bool) -> None:
        """Turn profiling on or off on every CPU, without stopping."""
        for proc in self.procs:
            if proc.monitor is not None:
                proc.monitor.moncontrol(enabled)

    def extract(
        self, comment: str = "", reset: bool = False
    ) -> list[ProfileData]:
        """Snapshot every shard; optionally clear them (kgmon extract).

        Safe at any scheduling-round boundary while the machine keeps
        running: resets clear shard data in place, and process cost
        tables are untouched, so extracted-plus-residual data always
        merges to the uninterrupted run's bytes.
        """
        parts = [shard.snapshot(comment) for shard in self.shards]
        if reset:
            for shard in self.shards:
                shard.reset()
        return parts

    def merged_profile(self, comment: str = "") -> ProfileData:
        """The shards reduced to one canonical profile.

        ``runs`` is the process count — the number of executions summed
        — never the shard count, so the bytes cannot depend on how many
        CPUs the workload happened to be spread across.
        """
        return reduce_shards(
            self.extract(), comment=comment, runs=len(self.procs)
        )

    # -- observability -------------------------------------------------------

    def total_ticks(self) -> int:
        """PC samples currently held across all shards."""
        return sum(shard.histogram.total_ticks for shard in self.shards)

    def total_calls(self) -> int:
        """Arc traversals currently held across all shards."""
        return sum(shard.arcs.total_calls for shard in self.shards)

"""The execution-time monitor: histogram driver + arc table + lifecycle.

§3 splits execution monitoring into three parts: initialization before
the program runs (``monstartup``), the monitoring routine invoked from
profiled prologues (``mcount``, here :meth:`Monitor.mcount`), and the
shutdown step that condenses the data (``mcleanup``, here
:meth:`Monitor.mcleanup`).  The retrospective adds the programmer's
interface used for kernel profiling: turn the profiler on and off
(``moncontrol``), extract the data, and reset it — all without stopping
the program; :meth:`snapshot` and :meth:`reset` provide those.

The paper's design only persists data at termination — so a crashed or
killed run loses everything.  :meth:`enable_checkpoints` adds periodic
crash-safe flushing: every N clock ticks the current snapshot is written
atomically (write-to-temp-then-rename, see :mod:`repro.resilience`), so
a kill at any instant leaves the most recent complete checkpoint on
disk, never a torn file.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.histogram import DEFAULT_PROFRATE, Histogram
from repro.core.profiledata import ProfileData
from repro.errors import MachineError
from repro.machine.mcount import ArcTable, ArcTableStats
from repro.resilience.faults import FaultInjector


@dataclass
class MonitorConfig:
    """Configuration fixed at ``monstartup`` time.

    Attributes:
        low_pc, high_pc: address range to sample.
        scale: histogram buckets per address unit (1.0 = the one-to-one
            mapping; smaller = coarser histogram in less memory).
        cycles_per_tick: simulated cycles per profiling clock tick (the
            1/60th-of-a-second granularity knob); must be positive.
        profrate: nominal ticks per second, used to express simulated
            cycles as seconds in reports.
        checkpoint_path: when set, flush a crash-safe snapshot of the
            profile data here while the program runs.
        checkpoint_interval: clock ticks between checkpoint flushes
            (0 disables checkpointing even with a path set; negative
            values are rejected).
    """

    low_pc: int
    high_pc: int
    scale: float = 1.0
    cycles_per_tick: int = 100
    profrate: int = DEFAULT_PROFRATE
    checkpoint_path: str | None = None
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        if self.cycles_per_tick <= 0:
            raise MachineError(
                f"cycles per tick must be positive, got {self.cycles_per_tick}"
            )
        if self.checkpoint_interval < 0:
            raise MachineError(
                "checkpoint interval must be non-negative, got "
                f"{self.checkpoint_interval}"
            )


def _fast_bucket_params(
    histogram: Histogram,
) -> tuple[int, int, int, list[int]] | None:
    """Shift/mask parameters for the per-tick bucket computation.

    Returns ``(low_pc, high_pc, shift, counts)`` when every bucket
    covers exactly ``2**shift`` address units, so the tick hot path can
    index with ``(pc - low_pc) >> shift`` instead of the float division
    inside :meth:`Histogram.bucket_for`.  With an integral width that
    exactly tiles the range, the maximum index is ``nbuckets - 1``, so
    the reference path's last-bucket clamp can never fire and the two
    computations agree on every address (a property the tests pin).
    Returns None for geometries the shift cannot express; those fall
    back to the reference computation.
    """
    span = histogram.high_pc - histogram.low_pc
    nbuckets = len(histogram.counts)
    if span <= 0 or nbuckets <= 0 or span % nbuckets:
        return None
    width = span // nbuckets
    if width & (width - 1):
        return None
    return (
        histogram.low_pc,
        histogram.high_pc,
        width.bit_length() - 1,
        histogram.counts,
    )


class Monitor:
    """Per-execution profiling state, attached to a CPU.

    The CPU calls :meth:`tick` at every clock tick (histogram sampling
    costs the program nothing, as in the kernel-maintained original) and
    :meth:`mcount` from every profiled prologue (which *does* cost
    cycles — the return value is the simulated cost the CPU charges).

    Attributes:
        arc_table: the process-local, site-keyed §3.1 table; it prices
            every arc.
        arc_sink: None, or a ``(from_pc, self_pc)`` callable that also
            receives every recorded arc (an SMP process's monitor points
            it at the executing CPU's shard).
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        self.histogram = Histogram.for_range(
            config.low_pc, config.high_pc, config.scale, config.profrate
        )
        self._fast_bucket = _fast_bucket_params(self.histogram)
        self.arc_table = ArcTable()
        self.arc_sink = None
        self.enabled = True
        self.ticks_dropped = 0
        self._checkpoint_path: str | None = None
        self._checkpoint_every = 0
        self._checkpoint_injector: FaultInjector | None = None
        self._checkpoint_comment = "checkpoint"
        self._ticks_since_flush = 0
        self.checkpoints_written = 0
        if config.checkpoint_path and config.checkpoint_interval > 0:
            self.enable_checkpoints(
                config.checkpoint_path, config.checkpoint_interval
            )

    # -- the two data-gathering entry points ------------------------------------

    def tick(self, pc: int) -> None:
        """Record one clock-tick PC sample (no cost to the program).

        This is the per-tick hot path: when the histogram's bucket
        width is an integral power of two (the default one-to-one
        geometry included), the bucket index is a cached shift instead
        of :meth:`Histogram.bucket_for`'s repeated float division.
        """
        if not self.enabled:
            return
        fast = self._fast_bucket
        if fast is not None:
            low, high, shift, counts = fast
            if low <= pc < high:
                counts[(pc - low) >> shift] += 1
            else:
                self.ticks_dropped += 1
        elif not self.histogram.record(pc):
            self.ticks_dropped += 1
        if self._checkpoint_every:
            self._ticks_since_flush += 1
            if self._ticks_since_flush >= self._checkpoint_every:
                self.flush_checkpoint()

    def mcount(self, from_pc: int | None, self_pc: int) -> int:
        """The monitoring routine: record an arc traversal.

        Returns the simulated cycle cost (0 when profiling is off — the
        prologue still tests the enable flag, which we price at zero for
        simplicity; unprofiled *builds* have no prologue at all).  The
        cost comes from :attr:`arc_table`; :attr:`arc_sink`, when set,
        receives the arc too.
        """
        if not self.enabled:
            return 0
        cost = self.arc_table.record(from_pc, self_pc)
        if self.arc_sink is not None:
            self.arc_sink(from_pc, self_pc)
        return cost

    def rebind_histogram(self, histogram: Histogram) -> None:
        """Point the tick hot path at a different histogram.

        The SMP machine's per-process monitors are re-aimed at the
        executing CPU's histogram shard on every dispatch; the cached
        shift/mask parameters must follow the histogram or ticks would
        keep landing in the previous CPU's shard.
        """
        self.histogram = histogram
        self._fast_bucket = _fast_bucket_params(histogram)

    # -- the programmer's interface (moncontrol / kgmon) -------------------------

    def moncontrol(self, enabled: bool) -> None:
        """Turn profiling on or off while the program keeps running."""
        self.enabled = enabled

    def snapshot(self, comment: str = "") -> ProfileData:
        """Extract the profiling data gathered so far, without stopping.

        The kernel-profiling workflow: gather a window of activity, pull
        the data out, analyze offline.
        """
        return ProfileData(
            self.histogram.copy(),
            self.arc_table.arcs(),
            comment=comment,
        )

    def reset(self) -> None:
        """Zero the histogram and the arc table (kgmon reset)."""
        self.histogram.reset()
        self.arc_table.reset()

    # -- crash-safe checkpointing -------------------------------------------------

    def enable_checkpoints(
        self,
        path,
        every_ticks: int,
        injector: FaultInjector | None = None,
        comment: str = "checkpoint",
    ) -> None:
        """Flush a crash-safe snapshot to ``path`` every ``every_ticks``.

        Each flush is an atomic write of the complete data gathered so
        far, so killing the run at *any* point — including mid-flush —
        leaves the most recent finished checkpoint readable at ``path``.
        ``injector`` threads the fault-injection harness through the
        writes (tests kill chosen flushes with it).
        """
        if every_ticks <= 0:
            raise ValueError(
                f"checkpoint interval must be positive, got {every_ticks}"
            )
        self._checkpoint_path = path
        self._checkpoint_every = every_ticks
        self._checkpoint_injector = injector
        self._checkpoint_comment = comment
        self._ticks_since_flush = 0

    def flush_checkpoint(self) -> None:
        """Write the current snapshot to the checkpoint path, atomically."""
        if self._checkpoint_path is None:
            return
        from repro.gmon import write_gmon

        self._ticks_since_flush = 0
        write_gmon(
            self.snapshot(self._checkpoint_comment),
            self._checkpoint_path,
            injector=self._checkpoint_injector,
        )
        self.checkpoints_written += 1

    # -- shutdown -----------------------------------------------------------------

    def mcleanup(self, comment: str = "") -> ProfileData:
        """Condense the data structures as the program terminates (§3).

        With checkpointing enabled, the final state is also flushed to
        the checkpoint path, so the on-disk snapshot of a run that *did*
        terminate cleanly matches its complete data.
        """
        data = self.snapshot(comment)
        if self._checkpoint_path is not None:
            self.flush_checkpoint()
        return data

    @property
    def stats(self) -> ArcTableStats:
        """Arc-table operation statistics (for the T-MCOUNT benchmark)."""
        return self.arc_table.stats

"""The monitoring routine's arc table, faithful to §3.1.

"Our solution is to access the table through a hash table.  We use the
call site as the primary key with the callee address being the secondary
key.  Since each call site typically calls only one callee, we can
reduce (usually to one) the number of minor lookups based on the callee.
... we were able to allocate enough space for the primary hash table to
allow a one-to-one mapping from call site addresses to the primary hash
table.  Thus our hash function is trivial to calculate and collisions
occur only for call sites that call multiple destinations (e.g.
functional parameters and functional variables)."

We reproduce that structure: a direct-mapped primary table indexed by
call site, each slot holding a small chain of (callee, count) records.
Probe counts are tracked so the T-MCOUNT benchmark can verify the
"usually one" claim, and so the monitoring routine's simulated cycle
cost reflects the real lookup work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.arcs import RawArc

#: Base cycle cost of entering the monitoring routine (prologue call,
#: register save, return-address discovery), before any hash probes.
#: Calibrated so that ordinary programs land in the paper's "five to
#: thirty percent" overhead band, with pathological call-only programs
#: above it and compute-bound programs below.
MCOUNT_BASE_COST = 5

#: Additional cycles per probe of the secondary (callee) chain.
MCOUNT_PROBE_COST = 1


@dataclass
class ArcTableStats:
    """Operation counts for the arc table, for the T-MCOUNT benchmark.

    Attributes:
        lookups: monitoring routine invocations (= profiled calls).
        probes: total secondary-chain probes across all lookups.
        collisions: lookups that needed more than one probe — exactly
            the call sites invoking multiple destinations.
        spontaneous: invocations whose caller could not be identified.
    """

    lookups: int = 0
    probes: int = 0
    collisions: int = 0
    spontaneous: int = 0

    @property
    def mean_probes(self) -> float:
        """Average probes per lookup (the paper's 'usually one')."""
        return self.probes / self.lookups if self.lookups else 0.0


@dataclass
class ArcTable:
    """The in-memory table of discovered call graph arcs.

    The primary index is the call-site address itself (the paper's
    one-to-one direct mapping); each entry chains (callee, count)
    records, almost always of length one.
    """

    _table: dict[int, list[list[int]]] = field(default_factory=dict)
    stats: ArcTableStats = field(default_factory=ArcTableStats)

    def record(self, from_pc: int | None, self_pc: int) -> int:
        """Count one traversal of the arc (from_pc → self_pc).

        ``from_pc`` of None marks a spontaneous invocation (unknown
        caller); it is recorded under address 0, per the file format's
        convention.  Returns the simulated cycle cost of the operation
        (base cost plus per-probe cost), which the CPU charges to the
        profiled program — this is the overhead the paper bounds at
        "five to thirty percent".
        """
        self.stats.lookups += 1
        if from_pc is None:
            self.stats.spontaneous += 1
            from_pc = 0
        chain = self._table.get(from_pc)
        if chain is None:
            chain = []
            self._table[from_pc] = chain
        probes = 0
        for entry in chain:
            probes += 1
            if entry[0] == self_pc:
                entry[1] += 1
                break
        else:
            probes += 1
            chain.append([self_pc, 1])
        self.stats.probes += probes
        if probes > 1:
            self.stats.collisions += 1
        return MCOUNT_BASE_COST + MCOUNT_PROBE_COST * probes

    def arcs(self) -> list[RawArc]:
        """Condense the table to raw arc records (§3.2's file step)."""
        return [
            RawArc(from_pc, self_pc, count)
            for from_pc, chain in sorted(self._table.items())
            for self_pc, count in sorted(chain)
        ]

    def reset(self) -> None:
        """Drop all recorded arcs (the kgmon 'reset' operation).

        Statistics are preserved: they describe the monitoring routine's
        behaviour, not the program's.
        """
        self._table.clear()

    def __len__(self) -> int:
        """Number of distinct (call site, callee) pairs recorded."""
        return sum(len(chain) for chain in self._table.values())


@dataclass
class ArcBuffer:
    """A bare per-CPU arc accumulation buffer (no cost model, no stats).

    The SMP machine (:mod:`repro.machine.smp`) splits §3.1's monitoring
    routine in two: the *cost* of the lookup is charged from each
    process's private :class:`ArcTable` (so a process's virtual clock
    never depends on which CPU it happened to run on), while the *data*
    lands in the buffer of the CPU executing the process — a plain
    ``(call site, callee) -> count`` map touched by exactly one CPU,
    which is why the hot path needs no cross-CPU locking.
    """

    _counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def record(self, from_pc: int | None, self_pc: int) -> None:
        """Count one traversal of the arc (from_pc -> self_pc).

        ``from_pc`` of None marks a spontaneous invocation; it is
        recorded under address 0, matching :meth:`ArcTable.record`.
        """
        key = (0 if from_pc is None else from_pc, self_pc)
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1

    def arcs(self) -> list[RawArc]:
        """Condense the buffer to sorted raw arc records."""
        return [
            RawArc(from_pc, self_pc, count)
            for (from_pc, self_pc), count in sorted(self._counts.items())
        ]

    def reset(self) -> None:
        """Drop all recorded arcs (the kgmon per-shard reset)."""
        self._counts.clear()

    @property
    def total_calls(self) -> int:
        """Total arc traversals recorded in this buffer."""
        return sum(self._counts.values())

    def __len__(self) -> int:
        """Number of distinct (call site, callee) pairs recorded."""
        return len(self._counts)


@dataclass
class CalleeKeyedArcTable:
    """The road not taken: callee as primary key, call site as secondary.

    §3.1 weighs this alternative: "Such an organization has the
    advantage of associating callers with callees, at the expense of
    longer lookups in the monitoring routine."  A routine called from
    many sites (the common case for useful abstractions — the very
    motivation of the paper) chains all its call sites under one key,
    so the secondary probe count grows with the routine's popularity
    instead of staying at one.

    Implemented with the same record/arcs/stats interface as
    :class:`ArcTable` so the ablation benchmark can swap them.
    """

    _table: dict[int, list[list[int]]] = field(default_factory=dict)
    stats: ArcTableStats = field(default_factory=ArcTableStats)

    def record(self, from_pc: int | None, self_pc: int) -> int:
        """Count one traversal; returns the simulated cycle cost."""
        self.stats.lookups += 1
        if from_pc is None:
            self.stats.spontaneous += 1
            from_pc = 0
        chain = self._table.get(self_pc)
        if chain is None:
            chain = []
            self._table[self_pc] = chain
        probes = 0
        for entry in chain:
            probes += 1
            if entry[0] == from_pc:
                entry[1] += 1
                break
        else:
            probes += 1
            chain.append([from_pc, 1])
        self.stats.probes += probes
        if probes > 1:
            self.stats.collisions += 1
        return MCOUNT_BASE_COST + MCOUNT_PROBE_COST * probes

    def arcs(self) -> list[RawArc]:
        """Condense to raw arc records (identical output to ArcTable)."""
        return sorted(
            (
                RawArc(from_pc, self_pc, count)
                for self_pc, chain in self._table.items()
                for from_pc, count in chain
            ),
            key=lambda a: (a.from_pc, a.self_pc),
        )

    def reset(self) -> None:
        """Drop recorded arcs, keep statistics."""
        self._table.clear()

    def __len__(self) -> int:
        """Number of distinct (call site, callee) pairs recorded."""
        return sum(len(chain) for chain in self._table.values())

"""The §4 post-processing passes as explicit, registered stages.

What used to be one opaque ``analyze()`` body is now a sequence of
:class:`Stage` objects over a shared :class:`PipelineState` blackboard.
Each stage declares the state fields it ``requires`` and ``provides``
— the registry test derives the §4 ordering constraints from these
declarations (notably: static augmentation *must* precede topological
numbering, because zero-count static arcs can complete cycles).

The stage sequence, in execution order:

==============  =============================================================
``symbolize``   raw address arcs -> routine-level :class:`ArcSet`
``exclude``     drop user-excluded routines (validating the names)
``apportion``   histogram buckets -> per-routine self seconds
``build-graph`` arcs + sampled routines -> :class:`CallGraph`
``augment``     add statically-discovered zero-count arcs (§4)
``break-cycles`` explicit arc deletions + the bounded NP-complete heuristic
``number``      Tarjan SCCs + topological numbering (Figure 1)
``propagate``   solve the time-propagation recurrence
``assemble``    presentation-ready :class:`~repro.core.analysis.Profile`
==============  =============================================================

Every stage fills an integer ``counters`` dict describing the work it
did; :func:`~repro.trace.run_stage` wraps each call with wall-time
measurement and appends a :class:`~repro.trace.StageTrace`.  The
:class:`~repro.trace.Stage` protocol, its order check and its trace are
shared with the compiler passes (:mod:`repro.lang.passes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.arcs import ArcSet, symbolize_arcs
from repro.core.arcremoval import break_cycles_heuristic, remove_arcs
from repro.core.callgraph import CallGraph
from repro.core.cycles import number_graph
from repro.core.propagate import propagate
from repro.core.staticgraph import augment_with_static_arcs
from repro.trace import Stage


@dataclass
class PipelineState:
    """The blackboard every stage reads from and writes to.

    The first three fields are the pipeline's immutable inputs; the
    rest are intermediates, each named in the ``provides`` of the
    stages that write it.  Most have one provider; ``graph`` has three
    (build-graph creates it, augment and break-cycles edit it in
    place).  A cache group stores and restores exactly the fields its
    stages provide.  ``warnings`` accumulates degradation notices in
    stage order and ends up on the assembled profile.
    """

    data: Any
    symbols: Any
    options: Any
    warnings: list[str] = field(default_factory=list)
    symbolized: list | None = None
    arcs: ArcSet | None = None
    #: Precomputed bucket/symbol overlap spans (see
    #: repro.core.kernels.spans); seeded by the runner from the
    #: analysis cache when available, else built by ApportionStage.
    spans: Any = None
    self_times: dict[str, float] | None = None
    graph: CallGraph | None = None
    removed: list | None = None
    numbered: Any = None
    prop: Any = None
    profile: Any = None

    @property
    def excluded(self) -> set[str]:
        return set(self.options.excluded)


class SymbolizeStage(Stage):
    """§4 step 1: resolve raw address arcs against the symbol table.

    Arcs whose callee address matches no symbol are structurally
    impossible for this image; they are dropped with one collected
    warning (salvaged/partial data must still produce output) unless
    ``keep_unknown`` retains them under synthetic names.
    """

    name = "symbolize"
    provides = ("symbolized",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        data, symbols, options = state.data, state.symbols, state.options
        unknown = 0
        if not options.keep_unknown:
            unknown = sum(
                1 for a in data.arcs if symbols.find(a.self_pc) is None
            )
            if unknown:
                state.warnings.append(
                    f"skipped {unknown} arc(s) whose callee address matches "
                    "no symbol in this image"
                )
        state.symbolized = symbolize_arcs(
            data.arcs, symbols, options.keep_unknown
        )
        counters["raw_arcs"] = len(data.arcs)
        counters["routine_arcs"] = len(state.symbolized)
        counters["unknown_dropped"] = unknown


class ExcludeStage(Stage):
    """§4 step 2: erase user-excluded routines from the arc set.

    Excluded names that match neither a symbol nor any routine
    appearing in the arcs are almost certainly typos; each one gets a
    warning instead of being silently ignored.
    """

    name = "exclude"
    requires = ("symbolized",)
    provides = ("arcs",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        excluded = state.excluded
        arc_names = {a.caller for a in state.symbolized} | {
            a.callee for a in state.symbolized
        }
        unmatched = [
            name
            for name in state.options.excluded
            if name not in state.symbols and name not in arc_names
        ]
        for name in unmatched:
            state.warnings.append(
                f"excluded routine {name!r} matches no routine in this "
                "profile"
            )
        state.arcs = ArcSet(
            a
            for a in state.symbolized
            if a.callee not in excluded and a.caller not in excluded
        )
        counters["excluded_names"] = len(excluded)
        counters["unmatched_names"] = len(unmatched)
        counters["arcs_dropped"] = len(state.symbolized) - len(state.arcs)


class ApportionStage(Stage):
    """§4: charge histogram buckets to routines as self seconds.

    The bucket/symbol overlap spans depend only on the histogram
    layout and symbol table; when the runner found them in the
    analysis cache they ride in on ``state.spans`` and the stage skips
    the geometry walk entirely, evaluating the cached spans against
    this input's counts with the prefix-sum kernel.
    """

    name = "apportion"
    provides = ("spans", "self_times")

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        from repro.core import kernels

        hist = state.data.histogram
        if state.spans is None and hist.counts:
            state.spans = kernels.spans_for(
                state.symbols, hist.low_pc, hist.high_pc, hist.num_buckets
            )
        excluded = state.excluded
        state.self_times = {
            name: secs
            for name, secs in hist.time_for_symbols(
                state.symbols, spans=state.spans
            ).items()
            if name not in excluded
        }
        counters["buckets"] = hist.num_buckets
        counters["routines_sampled"] = len(state.self_times)
        counters["span_symbols"] = (
            len(state.spans.entries) if state.spans is not None else 0
        )


class BuildGraphStage(Stage):
    """Build the call graph over every routine called or sampled."""

    name = "build-graph"
    requires = ("arcs", "self_times")
    provides = ("graph",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        state.graph = CallGraph(state.arcs, extra_nodes=state.self_times)
        counters["nodes"] = len(state.graph)
        counters["arcs"] = state.graph.num_arcs()


class AugmentStage(Stage):
    """§4: add statically-discovered zero-count arcs.

    Must run before :class:`NumberStage` — static arcs can complete
    strongly-connected components, so augmenting after numbering would
    change cycle membership between executions.
    """

    name = "augment"
    requires = ("graph",)
    provides = ("graph",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        excluded = state.excluded
        static_pairs = [
            (c, e)
            for c, e in state.options.static_arcs
            if c not in excluded and e not in excluded
        ]
        added = augment_with_static_arcs(state.graph, static_pairs)
        counters["static_pairs"] = len(static_pairs)
        counters["arcs_added"] = added


class BreakCyclesStage(Stage):
    """Arc deletion: explicit user requests, then the bounded heuristic.

    Requested deletions naming arcs absent from this run's graph are
    reported as warnings — the user may legitimately list arcs that a
    particular execution never traversed, but silence would also hide
    typos.
    """

    name = "break-cycles"
    requires = ("graph",)
    provides = ("graph", "removed")

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        options = state.options
        missing = [
            (frm, to)
            for frm, to in options.deleted_arcs
            if state.graph.arc(frm, to) is None
        ]
        for frm, to in missing:
            state.warnings.append(
                f"deleted arc {frm}/{to} does not appear in this "
                "profile's call graph"
            )
        removed = remove_arcs(state.graph, options.deleted_arcs)
        explicit = len(removed)
        if options.auto_break_cycles:
            removed += break_cycles_heuristic(
                state.graph, options.max_removed_arcs
            )
        state.removed = removed
        counters["requested"] = len(options.deleted_arcs)
        counters["unmatched_requests"] = len(missing)
        counters["removed_explicit"] = explicit
        counters["removed_heuristic"] = len(removed) - explicit


class NumberStage(Stage):
    """§4: Tarjan SCC discovery + topological numbering in one pass."""

    name = "number"
    requires = ("graph",)
    provides = ("numbered",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        state.numbered = number_graph(state.graph)
        counters["representatives"] = len(state.numbered.topo_order)
        counters["cycles"] = len(state.numbered.cycles)
        counters["cycle_members"] = sum(
            len(c) for c in state.numbered.cycles
        )


class PropagateStage(Stage):
    """§4: solve the time-propagation recurrence, leaves first."""

    name = "propagate"
    requires = ("numbered", "self_times")
    provides = ("prop",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        state.prop = propagate(state.numbered, state.self_times)
        counters["arc_shares"] = len(state.prop.arc_shares)


class AssembleStage(Stage):
    """§5: build the presentation-ready profile (entries, flat rows)."""

    name = "assemble"
    requires = ("graph", "numbered", "prop", "removed")
    provides = ("profile",)

    def run(self, state: PipelineState, counters: dict[str, int]) -> None:
        from repro.core.analysis import assemble_profile

        state.profile = assemble_profile(
            state.data,
            state.symbols,
            state.graph,
            state.numbered,
            state.prop,
            state.removed,
            state.warnings,
        )
        counters["graph_entries"] = len(state.profile.graph_entries)
        counters["flat_entries"] = len(state.profile.flat_entries)
        counters["never_called"] = len(state.profile.never_called)


#: The §4 pipeline, in execution order.  ``run_analysis`` walks exactly
#: this list; :func:`repro.trace.check_order` accepts it (augment
#: before number, etc.), which the registry test asserts.
STAGES: tuple[Stage, ...] = (
    SymbolizeStage(),
    ExcludeStage(),
    ApportionStage(),
    BuildGraphStage(),
    AugmentStage(),
    BreakCyclesStage(),
    NumberStage(),
    PropagateStage(),
    AssembleStage(),
)

#: Stage lookup by registered name.
STAGE_BY_NAME: dict[str, Stage] = {s.name: s for s in STAGES}

"""Time propagation: charging descendants' time to their ancestors.

§4 of the paper.  With ``C_e`` the number of calls to routine ``e`` and
``C_e^r`` the number of calls from caller ``r`` to ``e``, the total time
accounted to ``r`` obeys the recurrence::

    T_r  =  S_r  +  sum over e called by r of  T_e * C_e^r / C_e

Solving it requires visiting routines leaves-first, which the topological
numbering of :mod:`repro.core.cycles` provides; cycles have already been
collapsed into single nodes, because time must not be propagated from a
routine to itself, directly (self-recursion) or around a cycle.

Concretely, for every *representative* node (a routine, or a collapsed
cycle) we compute:

* ``self_time`` — from the PC histogram, summed over members for cycles;
* ``child_time`` — time inherited from descendants outside the node;
* ``total_time`` — the ``T`` of the recurrence: self + child;
* ``ncalls`` — external calls into the node: calls among cycle members
  and self-recursive calls are *excluded* ("Since cycle 1 is called a
  total of forty times (not counting calls among members of the cycle)").

and for every inter-node arc with a positive traversal count, the share
of the callee's self and descendant time that flows up the arc.  Static
(zero-count) arcs and arcs whose caller is unknown ("spontaneous")
propagate nothing; their callee's time simply stays put.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.cycles import NumberedGraph
from repro.core.kernels import prop as _kernels_prop


@dataclass(frozen=True)
class ArcShare:
    """Time flowing up one call graph arc.

    ``self_share`` is the portion of the callee's (or callee's cycle's)
    own time charged to the caller through this arc; ``child_share`` is
    the portion of the callee's descendants' time.  Both are in seconds.
    """

    self_share: float
    child_share: float

    @property
    def total(self) -> float:
        """Total seconds flowing up this arc."""
        return self.self_share + self.child_share


@dataclass
class Propagation:
    """The solved recurrence, for representatives, routines, and arcs.

    Attributes:
        numbered: the cycle-collapsed, numbered graph that was solved.
        self_time: seconds of own execution per representative node.
        child_time: seconds inherited from external descendants.
        total_time: ``self_time + child_time`` per representative.
        ncalls: external dynamic calls into each representative.
        self_calls: intra-node calls (self-recursive calls for plain
            routines; calls among members for cycles) — displayed after
            the ``+`` in the paper's ``10+4`` notation.
        routine_self: per-routine self seconds (cycle members keep their
            individual figure even though propagation used the sum).
        routine_child: per-routine inherited seconds from descendants
            *outside* the routine's cycle.
        arc_shares: time flowing up each (caller, callee) arc.
        total_program_time: seconds of sampled execution attributed to
            any profiled routine; the denominator of every percentage.
    """

    numbered: NumberedGraph
    self_time: dict[str, float] = field(default_factory=dict)
    child_time: dict[str, float] = field(default_factory=dict)
    total_time: dict[str, float] = field(default_factory=dict)
    ncalls: dict[str, int] = field(default_factory=dict)
    self_calls: dict[str, int] = field(default_factory=dict)
    routine_self: dict[str, float] = field(default_factory=dict)
    routine_child: dict[str, float] = field(default_factory=dict)
    arc_shares: dict[tuple[str, str], ArcShare] = field(default_factory=dict)
    total_program_time: float = 0.0

    def representative_of(self, routine: str) -> str:
        """The node that stood for ``routine`` during propagation."""
        return self.numbered.representative[routine]

    def percent(self, rep: str) -> float:
        """Percent of total program time accounted to ``rep``."""
        if self.total_program_time <= 0:
            return 0.0
        return 100.0 * self.total_time[rep] / self.total_program_time


def propagate(
    numbered: NumberedGraph,
    self_times: Mapping[str, float],
) -> Propagation:
    """Solve the time-propagation recurrence over a numbered graph.

    Arguments:
        numbered: output of :func:`repro.core.cycles.number_graph`.
        self_times: per-routine self seconds from the histogram (missing
            routines are treated as zero — they were called but never
            sampled).

    Returns the fully-populated :class:`Propagation`.

    The visit order is ``numbered.topo_order`` (leaves first).  When node
    ``e`` is visited, every external child of ``e`` has already pushed
    its share into ``child_time[e]``, so ``total_time[e]`` is final and
    ``e`` can in turn push shares to its parents — a single traversal of
    each arc, as §4 promises.

    The graph walk is flattened into a
    :class:`~repro.core.kernels.prop.PropPlan` (memoized on
    ``numbered``, so repeated solves against the same graph — PGO
    iterations, same-layout fleets — skip it) and the recurrence is
    solved by one flat scalar pass over the plan's arc columns (see
    :mod:`repro.core.kernels.prop`).
    """
    plan = _kernels_prop.plan_for(numbered)
    sol = _kernels_prop.solve(plan, self_times)

    result = Propagation(numbered)
    for i, rep in enumerate(plan.order):
        result.self_time[rep] = sol.self_time[i]
        result.child_time[rep] = sol.child_time[i]
        result.ncalls[rep] = plan.ncalls[i]
        result.self_calls[rep] = plan.self_calls[i]
    for j, routine in enumerate(plan.routines):
        result.routine_self[routine] = self_times.get(routine, 0.0)
        result.routine_child[routine] = sol.routine_child[j]
    result.total_program_time = sol.total_program_time
    for i, rep in enumerate(plan.order):
        result.total_time[rep] = sol.total_time[i]
    for k in range(len(plan.arc_count)):
        if plan.ncalls[plan.arc_rep[k]] <= 0:
            continue
        result.arc_shares[(plan.arc_caller[k], plan.arc_member[k])] = ArcShare(
            sol.arc_self[k], sol.arc_child[k]
        )
    return result

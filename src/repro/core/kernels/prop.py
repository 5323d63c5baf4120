"""Flattened §4 time propagation over the topological order.

:func:`repro.core.propagate.propagate` solves ``T_r = S_r + sum T_e *
C_e^r / C_e`` leaves-first.  The graph walk that discovers *which*
arcs push time where — members per representative, external callers,
intra-cycle exclusions — depends only on the numbered graph, not on
the self-time vector, so it is flattened once into a :class:`PropPlan`
of parallel columns and reused across every solve against the same
graph (each iteration of a PGO loop, every same-layout profile of a
fleet).

The solve itself then touches nothing but the columns: one scalar pass
over the flat arc arrays — no set construction, no dict lookups per
arc.  It stays scalar on every host: when representatives have a few
incoming arcs each, as on every benchmark graph, numpy's per-call setup
costs more than batching saves (EXPERIMENTS.md, T-KERN).

The plan fixes one canonical arc order (members in cycle-member order
— the reference previously iterated a *set* here, so its float
accumulation order was hash-seed dependent; the plan's order is
deterministic), and every sum is a sequential python addition in that
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import PropagationError


@dataclass
class PropPlan:
    """The numbered graph, flattened into solve-ready columns.

    Representatives are indexed by topological position; every arc that
    can carry time appears once, grouped by callee representative
    (``arc_start[i]:arc_start[i+1]`` are node ``i``'s incoming arcs).
    """

    order: list[str]
    members: list[tuple[str, ...]]
    ncalls: list[int]
    self_calls: list[int]
    routines: list[str]
    arc_caller: list[str]
    arc_member: list[str]
    arc_count: list[int]
    arc_rep: list[int]  # rep index of the callee representative
    arc_parent: list[int]  # rep index of the caller's representative
    arc_caller_idx: list[int]  # routine index of the caller
    arc_start: list[int]
    fingerprint: int  # graph.num_arcs() at build time (staleness check)


@dataclass
class SolveResult:
    """One solved propagation, as plain columns (see PropPlan indexing)."""

    self_time: list[float]
    child_time: list[float]
    total_time: list[float]
    routine_child: list[float]
    arc_self: list[float]
    arc_child: list[float]
    total_program_time: float


def build_plan(numbered) -> PropPlan:
    """Flatten a :class:`~repro.core.cycles.NumberedGraph` for solving."""
    graph = numbered.graph
    rep_of = numbered.representative

    routines = list(graph.nodes())
    for routine in routines:
        if routine not in rep_of:
            raise PropagationError(f"routine {routine!r} was never numbered")
    routine_index = {name: i for i, name in enumerate(routines)}

    order = list(numbered.topo_order)
    rep_pos = {rep: i for i, rep in enumerate(order)}
    members: list[tuple[str, ...]] = []
    ncalls: list[int] = []
    self_calls: list[int] = []
    arc_caller: list[str] = []
    arc_member: list[str] = []
    arc_count: list[int] = []
    arc_rep: list[int] = []
    arc_parent: list[int] = []
    arc_caller_idx: list[int] = []
    arc_start = [0]

    for rep in order:
        mems = numbered.members_of(rep)
        member_set = set(mems)
        external = 0
        internal = 0
        for m in mems:
            external += graph.spontaneous_calls(m)
            for caller, arc in graph.parents(m).items():
                if caller in member_set:
                    internal += arc.count
                else:
                    external += arc.count
                    if arc.count:
                        arc_caller.append(caller)
                        arc_member.append(m)
                        arc_count.append(arc.count)
                        arc_rep.append(rep_pos[rep])
                        arc_parent.append(rep_pos[rep_of[caller]])
                        arc_caller_idx.append(routine_index[caller])
        members.append(mems)
        ncalls.append(external)
        self_calls.append(internal)
        arc_start.append(len(arc_count))

    return PropPlan(
        order=order,
        members=members,
        ncalls=ncalls,
        self_calls=self_calls,
        routines=routines,
        arc_caller=arc_caller,
        arc_member=arc_member,
        arc_count=arc_count,
        arc_rep=arc_rep,
        arc_parent=arc_parent,
        arc_caller_idx=arc_caller_idx,
        arc_start=arc_start,
        fingerprint=graph.num_arcs(),
    )


def plan_for(numbered) -> PropPlan:
    """:func:`build_plan`, memoized on the numbered-graph instance.

    Cached pipeline values are treat-as-immutable, so the plan can ride
    the instance; ``fingerprint`` guards the direct-API case where
    someone edits the underlying graph between propagations.
    """
    plan = getattr(numbered, "_prop_plan", None)
    if plan is None or plan.fingerprint != numbered.graph.num_arcs():
        plan = build_plan(numbered)
        try:
            numbered._prop_plan = plan
        except AttributeError:  # slotted variant: just rebuild next time
            pass
    return plan


def solve(plan: PropPlan, self_times: Mapping[str, float]) -> SolveResult:
    """Solve the recurrence over a plan in one pass over its arcs."""
    nrep = len(plan.order)
    narc = len(plan.arc_count)

    self_time = [0.0] * nrep
    for i in range(nrep):
        st = 0.0
        for m in plan.members[i]:
            st += self_times.get(m, 0.0)
        self_time[i] = st
    total_program_time = 0.0
    for st in self_time:
        total_program_time += st

    child_time = [0.0] * nrep
    total_time = [0.0] * nrep
    routine_child = [0.0] * len(plan.routines)
    arc_self = [0.0] * narc
    arc_child = [0.0] * narc
    arc_count = plan.arc_count
    arc_parent = plan.arc_parent
    arc_caller_idx = plan.arc_caller_idx
    arc_start = plan.arc_start
    for i in range(nrep):
        st = self_time[i]
        ct = child_time[i]
        total_time[i] = st + ct
        n = plan.ncalls[i]
        if n <= 0:
            continue
        for k in range(arc_start[i], arc_start[i + 1]):
            frac = arc_count[k] / n
            ss = st * frac
            cc = ct * frac
            arc_self[k] = ss
            arc_child[k] = cc
            tot = ss + cc
            child_time[arc_parent[k]] += tot
            routine_child[arc_caller_idx[k]] += tot
    return SolveResult(
        self_time,
        child_time,
        total_time,
        routine_child,
        arc_self,
        arc_child,
        total_program_time,
    )

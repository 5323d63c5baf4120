"""Static execution-frequency prediction: the profile before the run.

gprof derives everything from *measured* counts and samples; this
module derives the same shape of answer from the text segment alone, in
the style of Wu & Larus' static branch/frequency estimation:

* **block frequencies** per routine: propagate mass 1.0 from the entry
  along forward CFG edges (equal split at branches, dead edges from the
  interval analysis excluded), multiplying by
  :data:`LOOP_MULTIPLIER` at every natural-loop header so nesting
  compounds — a depth-2 block runs ~100× per activation;
* **per-activation cycles**: block frequency × the block's cycle cost
  from :data:`repro.machine.isa.COSTS` (``WORK`` adds its operand);
* **activation counts**: mass 1.0 enters at the program entry routine
  and flows along call-site frequencies through the static call graph;
  strongly-connected components (recursion) are collapsed and charged
  :data:`RECURSION_MULTIPLIER`, mirroring §4's cycle treatment;
* the **predicted profile**: per-routine static weight (activations ×
  per-activation cycles, normalized to a share) plus the
  statically-possible call multiset — every ``CALL`` site exactly,
  every ``CALLI`` site expanded to the address-taken candidate set.

The result is deterministic for a given image: block and site walks are
in address order, candidate sets are sorted, and the arithmetic has no
iteration-order freedom — the serialized artifact is byte-stable, and
the T-FLOW benchmark gates on that.

The numbers are *estimates* (every branch 50/50, every loop ~10
iterations); their value is relational — which routines should
dominate, which arcs are possible at all — which is exactly what the
expectation checks (:mod:`repro.check.expect`) compare against the
measured profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.check.absint import ValueResult, address_taken
from repro.check.cfg import RoutineCFG
from repro.check.dominators import DomTree, LoopForest
from repro.core.arcs import Arc
from repro.core.callgraph import CallGraph
from repro.core.cycles import strongly_connected_components
from repro.machine.executable import Executable
from repro.machine.isa import COSTS, INSTRUCTION_SIZE, Op

#: Assumed iterations of a natural loop per entry (the classic static
#: guess; Wu/Larus use loop-exit heuristics, we keep the flat prior).
LOOP_MULTIPLIER = 10.0

#: Assumed activations a recursive component gains over its external
#: entries — recursion is a loop through the call graph.
RECURSION_MULTIPLIER = 10.0


@dataclass(frozen=True)
class CallSite:
    """One statically-possible call.

    Attributes:
        address: the CALL/CALLI instruction's address.
        caller: routine containing the site.
        callee: the (candidate) target routine.
        indirect: True for CALLI candidates from the address-taken set.
        loop_depth: nesting depth of the site's block (0 outside loops).
        frequency: expected executions of the site per activation of
            the caller; for indirect sites, already split across the
            candidate set.
    """

    address: int
    caller: str
    callee: str
    indirect: bool
    loop_depth: int
    frequency: float


@dataclass
class RoutinePrediction:
    """The static estimate for one routine.

    Attributes:
        name: routine name.
        entry: entry address.
        block_freq: expected executions of each block per activation.
        cycles_per_activation: expected cycle cost of one activation,
            the routine's own instructions only (callees excluded).
        call_sites: the statically-possible call multiset out of this
            routine, in (address, callee) order.
        opaque_calli: addresses of CALLI sites with an *empty* candidate
            set — the static call graph under-approximates here and
            arc-level cross-checks must stand down for this caller.
        activations: expected activations over the whole run (filled by
            the interprocedural propagation; the entry routine gets 1).
    """

    name: str
    entry: int
    block_freq: dict[int, float] = field(default_factory=dict)
    cycles_per_activation: float = 0.0
    call_sites: tuple[CallSite, ...] = ()
    opaque_calli: tuple[int, ...] = ()
    activations: float = 0.0

    @property
    def weight(self) -> float:
        """The routine's predicted share of execution, in cycle units."""
        return self.activations * self.cycles_per_activation


@dataclass
class StaticProfile:
    """The whole predicted profile of one executable.

    Attributes:
        program: executable name.
        routines: predictions keyed by routine name, in address order.
    """

    program: str
    routines: dict[str, RoutinePrediction] = field(default_factory=dict)

    @property
    def total_weight(self) -> float:
        return sum(r.weight for r in self.routines.values())

    def share(self, name: str) -> float:
        """Predicted fraction of execution spent in ``name`` (0..1)."""
        total = self.total_weight
        if total <= 0.0:
            return 0.0
        return self.routines[name].weight / total

    def possible_arcs(self) -> set[tuple[str, str]]:
        """Every (caller, callee) pair any execution could record."""
        return {
            (site.caller, site.callee)
            for r in self.routines.values()
            for site in r.call_sites
        }

    def arc_sites(self) -> dict[tuple[str, str], list[CallSite]]:
        """Call sites grouped by (caller, callee)."""
        grouped: dict[tuple[str, str], list[CallSite]] = {}
        for r in self.routines.values():
            for site in r.call_sites:
                grouped.setdefault((site.caller, site.callee), []).append(site)
        return grouped

    def to_dict(self) -> dict:
        """JSON-serializable predicted profile (byte-deterministic)."""
        return {
            "format": "repro-staticprofile-1",
            "program": self.program,
            "loop_multiplier": LOOP_MULTIPLIER,
            "recursion_multiplier": RECURSION_MULTIPLIER,
            "routines": [
                {
                    "name": r.name,
                    "entry": r.entry,
                    "activations": round(r.activations, 9),
                    "cycles_per_activation": round(
                        r.cycles_per_activation, 9
                    ),
                    "weight": round(r.weight, 9),
                    "share": round(self.share(r.name), 9),
                    "opaque_calli": list(r.opaque_calli),
                    "calls": [
                        {
                            "site": s.address,
                            "callee": s.callee,
                            "indirect": s.indirect,
                            "loop_depth": s.loop_depth,
                            "frequency": round(s.frequency, 9),
                        }
                        for s in r.call_sites
                    ],
                }
                for r in self.routines.values()
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------- block frequencies


def block_frequencies(
    cfg: RoutineCFG,
    dom: DomTree,
    forest: LoopForest,
    dead_edges: frozenset[tuple[int, int]] = frozenset(),
) -> dict[int, float]:
    """Expected executions of each block per activation of the routine.

    One acyclic pass over the reverse postorder: back/retreating edges
    are dropped (their effect is the header's loop multiplier), branch
    mass splits equally over the remaining live successor blocks.
    """
    freq: dict[int, float] = {b: 0.0 for b in dom.rpo}
    if not dom.rpo:
        return freq
    index = {b: i for i, b in enumerate(dom.rpo)}
    freq[dom.rpo[0]] = 1.0
    for b in dom.rpo:
        if b in forest.loops:
            freq[b] *= LOOP_MULTIPLIER
        mass = freq[b]
        if mass == 0.0:
            continue
        succs = [
            s
            for s in sorted(set(cfg.blocks[b].successors))
            if s in index and index[s] > index[b]
            and (b, s) not in dead_edges
        ]
        if not succs:
            continue
        share = mass / len(succs)
        for s in succs:
            freq[s] += share
    return freq


def _block_cost(exe: Executable, start: int, end: int) -> int:
    """Cycle cost of one straight-line block."""
    cost = 0
    for addr in range(start, end, INSTRUCTION_SIZE):
        ins = exe.fetch(addr)
        cost += COSTS[ins.op]
        if ins.op is Op.WORK and ins.operand:
            cost += ins.operand
    return cost


# ------------------------------------------------------------ call-site harvest


def _routine_sites(
    exe: Executable,
    cfg: RoutineCFG,
    forest: LoopForest,
    freq: dict[int, float],
    candidates: list[str],
) -> tuple[tuple[CallSite, ...], tuple[int, ...]]:
    """All statically-possible call sites of one routine.

    Sites in unreachable or dead blocks keep frequency 0.0 but stay in
    the multiset: the *possible-arc* set must over-approximate (GP610
    must never fire on honest data), while the frequencies feed only
    the estimates.
    """
    name = cfg.function.name
    sites: list[CallSite] = []
    opaque: list[int] = []
    for start in sorted(cfg.blocks):
        block = cfg.blocks[start]
        depth = forest.depth_of(start)
        mass = freq.get(start, 0.0)
        for addr in range(block.start, block.end, INSTRUCTION_SIZE):
            ins = exe.fetch(addr)
            if ins.op is Op.CALL:
                callee = exe.function_at(ins.operand or 0)
                if callee is not None and callee.entry == ins.operand:
                    sites.append(CallSite(
                        addr, name, callee.name, False, depth, mass
                    ))
            elif ins.op is Op.CALLI:
                if not candidates:
                    opaque.append(addr)
                    continue
                split = mass / len(candidates)
                for cand in candidates:
                    sites.append(CallSite(
                        addr, name, cand, True, depth, split
                    ))
    sites.sort(key=lambda s: (s.address, s.callee))
    return tuple(sites), tuple(opaque)


# ------------------------------------------------------- activation propagation


def _propagate_activations(
    exe: Executable, profile: StaticProfile
) -> None:
    """Fill :attr:`RoutinePrediction.activations` along the call graph.

    Mass 1.0 enters at the entry routine; each SCC of the static call
    graph receives the external call mass into any member, multiplies
    it by :data:`RECURSION_MULTIPLIER` when the component is recursive,
    and forwards mass out along its members' call-site frequencies.
    """
    names = list(profile.routines)
    edges: dict[str, list[str]] = {n: [] for n in names}
    for r in profile.routines.values():
        for site in r.call_sites:
            if site.callee in edges:
                edges[r.name].append(site.callee)
    for n in names:
        edges[n] = sorted(set(edges[n]))

    graph = CallGraph(
        (Arc(caller, callee, 0) for caller in names for callee in edges[caller]),
        extra_nodes=names,
    )
    sccs = [sorted(comp) for comp in strongly_connected_components(graph)]
    sccs.reverse()  # callers before callees
    scc_of: dict[str, int] = {}
    for i, comp in enumerate(sccs):
        for member in comp:
            scc_of[member] = i

    incoming: dict[str, float] = {n: 0.0 for n in names}
    entry_fn = exe.function_at(exe.entry_point)
    if entry_fn is not None and entry_fn.name in incoming:
        incoming[entry_fn.name] = 1.0
    else:  # no resolvable entry: treat every routine as a root
        for n in names:
            incoming[n] = 1.0

    for i, comp in enumerate(sccs):
        recursive = len(comp) > 1 or any(
            m in edges[m] for m in comp
        )
        external = sum(incoming[m] for m in comp)
        for member in comp:
            if recursive:
                # The whole component shares the recursion-inflated
                # pot: mutual recursion visits every member.
                act = external * RECURSION_MULTIPLIER
            else:
                act = incoming[member]
            profile.routines[member].activations = act
            for site in profile.routines[member].call_sites:
                callee = site.callee
                if callee not in incoming or scc_of.get(callee) == i:
                    continue  # internal arcs are absorbed by the pot
                incoming[callee] += act * site.frequency


# ------------------------------------------------------------------ entry point


def build_static_profile(
    exe: Executable,
    cfgs: dict[str, RoutineCFG],
    doms: dict[str, DomTree],
    forests: dict[str, LoopForest],
    values: dict[str, ValueResult] | None = None,
) -> StaticProfile:
    """Assemble the predicted profile from the per-routine analyses.

    ``values`` (the interval results) is optional; when present, edges
    it proved dead are excluded from the frequency propagation — but
    never from the possible-call multiset.
    """
    profile = StaticProfile(exe.name)
    candidates = sorted(address_taken(exe))
    for fn in exe.functions:
        cfg = cfgs[fn.name]
        dom = doms[fn.name]
        forest = forests[fn.name]
        dead: frozenset[tuple[int, int]] = frozenset()
        val = values.get(fn.name) if values else None
        if val is not None and not val.aborted:
            dead = frozenset(val.dead_edges)
        freq = block_frequencies(cfg, dom, forest, dead)
        cycles = sum(
            freq.get(start, 0.0)
            * _block_cost(exe, block.start, block.end)
            for start, block in sorted(cfg.blocks.items())
        )
        sites, opaque = _routine_sites(exe, cfg, forest, freq, candidates)
        profile.routines[fn.name] = RoutinePrediction(
            name=fn.name,
            entry=fn.entry,
            block_freq=freq,
            cycles_per_activation=cycles,
            call_sites=sites,
            opaque_calli=opaque,
        )
    _propagate_activations(exe, profile)
    return profile

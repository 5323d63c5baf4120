"""Differential battery: the SMP machine is engine-agnostic, and its
merged profiles are frozen.

Three layers of evidence:

* **Fast vs reference.**  An :class:`SMPMachine` built on the
  predecoded fast engine must be indistinguishable from one built on
  the readable reference interpreter — merged bytes, per-process
  machine state, shard contents — including under interrupt storms and
  mid-run kgmon control (extract / reset / moncontrol between rounds),
  where the fast engine's batched clocks are most at risk.

* **Golden digests.**  Every canned program's merged profile at the
  canonical 4-CPU geometry is pinned in
  ``tests/golden/smp_corpus_n4.json`` (regenerate consciously with
  ``python -m tests.smp_golden --update``).  Because the merge is
  schedule-independent, the same digest must reproduce at *other*
  geometries too — checked here so the fixture guards both the wire
  format and the determinism property.

* **The SMP kernel.**  The simulated kernel on an N-CPU machine
  extracts identical windows on either engine.
"""

import hashlib

import pytest

from repro.gmon import dumps_gmon
from repro.kernel import KernelSession, Kgmon
from repro.machine import assemble
from repro.machine.cpu import InterruptSource
from repro.machine.programs import PROGRAMS
from repro.machine.smp import SMPMachine
from tests.smp_golden import corpus_digest, load_corpus
from tests.test_smp_determinism import proc_state, run_schedule

ENGINES = ("fast", "reference")


def shard_state(machine):
    """Per-shard observables (partition, not just the merged union)."""
    return [
        (s.index, list(s.histogram.counts), s.arcs.arcs(), s.ticks)
        for s in machine.shards
    ]


def run_engine(engine, name="dispatch", interrupts=None, control=None, **kw):
    """One SMP run on ``engine``; returns every observable."""
    source = PROGRAMS[name]()
    exe = assemble(source, name=name, profile=True)
    irqs = [InterruptSource(*spec) for spec in interrupts] if interrupts else None
    kw.setdefault("ncpus", 4)
    kw.setdefault("nprocs", 3)
    kw.setdefault("seed", 1)
    machine = SMPMachine(
        exe, engine=engine, cycles_per_tick=25, interrupts=irqs, **kw
    )
    extracted = []
    if control is None:
        machine.run()
    else:
        extracted = control(machine)
    return {
        "merged": dumps_gmon(machine.merged_profile(comment=name)),
        "procs": [proc_state(p) for p in machine.procs],
        "shards": shard_state(machine),
        "wall": machine.wall_cycles,
        "rounds": machine.rounds,
        "extracted": [dumps_gmon(d) for d in extracted],
    }


def assert_engines_agree(**kw):
    runs = {engine: run_engine(engine, **kw) for engine in ENGINES}
    assert runs["fast"] == runs["reference"]


# --------------------------------------------------------------------------
# Plain runs, every policy.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fib", "dispatch", "netcycle", "deep"])
def test_engines_agree_canned(name):
    assert_engines_agree(name=name)


@pytest.mark.parametrize("policy", ["random", "affinity", "skew"])
def test_engines_agree_policies(policy):
    assert_engines_agree(name="dispatch", policy=policy, seed=6)


# --------------------------------------------------------------------------
# Interrupt delivery, including storms.
# --------------------------------------------------------------------------

ISR_PROGRAM_NAME = "even_odd"  # any canned program + an appended handler


def run_engine_irq(engine, period, phase, max_rounds=None):
    source = PROGRAMS["even_odd"](12) + "\n.func smp_isr\n WORK 2\n RET\n.end\n"
    exe = assemble(source, name="even_odd_irq", profile=True)
    machine = SMPMachine(
        exe,
        ncpus=4,
        nprocs=3,
        seed=2,
        engine=engine,
        cycles_per_tick=25,
        interrupts=[InterruptSource("smp_isr", period, phase)],
    )
    machine.run(max_rounds=max_rounds)
    return {
        "merged": dumps_gmon(machine.merged_profile(comment="even_odd_irq")),
        "procs": [proc_state(p) for p in machine.procs],
        "shards": shard_state(machine),
    }


@pytest.mark.parametrize("period,phase", [(37, None), (250, 5)])
def test_engines_agree_interrupts(period, phase):
    assert run_engine_irq("fast", period, phase) == run_engine_irq(
        "reference", period, phase
    )


def test_engines_agree_interrupt_storm():
    """Deliveries due every cycle: the processes livelock in the handler
    by design; both engines must livelock identically under a round
    budget, and interrupt arcs stay per-process deterministic."""
    storm_f = run_engine_irq("fast", 1, 0, max_rounds=40)
    storm_r = run_engine_irq("reference", 1, 0, max_rounds=40)
    assert storm_f == storm_r
    assert all(p["irqs"] > 0 for p in storm_f["procs"])


def test_interrupt_arcs_schedule_independent():
    """Interrupts ride each process's own clock, so even IRQ-heavy runs
    keep the merged-bytes identity across CPU counts."""
    source = PROGRAMS["even_odd"](12) + "\n.func smp_isr\n WORK 2\n RET\n.end\n"
    exe_bytes = {}
    for ncpus in (1, 4):
        exe = assemble(source, name="even_odd_irq", profile=True)
        machine = SMPMachine(
            exe,
            ncpus=ncpus,
            nprocs=3,
            policy="skew",
            seed=4,
            cycles_per_tick=25,
            interrupts=[InterruptSource("smp_isr", 53, 1)],
        )
        machine.run()
        exe_bytes[ncpus] = dumps_gmon(machine.merged_profile(comment="x"))
    assert exe_bytes[1] == exe_bytes[4]


# --------------------------------------------------------------------------
# Mid-run kgmon control between scheduling rounds.
# --------------------------------------------------------------------------


def kgmon_control(machine):
    """Extract/reset and moncontrol churn while the machine runs."""
    extracted = []
    machine.run_rounds(3)
    extracted.extend(machine.extract(comment="w0", reset=True))
    machine.moncontrol(False)
    machine.run_rounds(2)
    machine.moncontrol(True)
    machine.run_rounds(3)
    extracted.extend(machine.extract(comment="w1", reset=True))
    machine.run()
    return extracted


def test_engines_agree_under_kgmon_control():
    assert_engines_agree(name="dispatch", control=kgmon_control)


# --------------------------------------------------------------------------
# Golden digests: the corpus at N=4 is frozen.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_golden_corpus_n4(name):
    golden = load_corpus()
    assert name in golden, "regenerate: python -m tests.smp_golden --update"
    assert corpus_digest(name) == golden[name], (
        f"{name}: merged SMP profile changed; if intentional, regenerate "
        "with python -m tests.smp_golden --update"
    )


@pytest.mark.parametrize(
    "kw",
    [
        {"ncpus": 1, "nprocs": 4},
        {"ncpus": 8, "nprocs": 4, "policy": "skew", "seed": 11},
        {"ncpus": 4, "nprocs": 4, "policy": "affinity", "seed": 3, "engine": "reference"},
    ],
)
def test_golden_reproduces_at_other_geometries(kw):
    """The frozen digest is geometry-free: other CPU counts, policies,
    seeds, and the reference engine all reproduce it."""
    golden = load_corpus()
    assert corpus_digest("dispatch", **kw) == golden["dispatch"]


def test_golden_digest_is_of_the_bytes():
    """The digest function itself: blake2b-128 of the wire bytes."""
    from tests.smp_golden import merged_gmon_bytes

    raw = merged_gmon_bytes("fib")
    assert (
        hashlib.blake2b(raw, digest_size=16).hexdigest()
        == load_corpus()["fib"]
    )


# --------------------------------------------------------------------------
# The kernel session on two CPUs, both engines.
# --------------------------------------------------------------------------


def kernel_windows(engine):
    session = KernelSession(
        ncpus=2, iterations=60, seed=3, engine=engine, irq_period=700
    )
    kgmon = Kgmon(session)
    kgmon.off()
    session.run_slice(2)
    windows = []
    while not session.halted and len(windows) < 2:
        kgmon.reset()
        kgmon.on()
        session.run_slice(4)
        kgmon.off()
        windows.append(dumps_gmon(kgmon.extract(f"w{len(windows)}")))
    status = kgmon.status()
    return windows, status.ticks, status.calls, status.halted


def test_smp_kernel_engines_agree():
    assert kernel_windows("fast") == kernel_windows("reference")


def test_smp_kernel_window_analyzes():
    """An extracted SMP window feeds the analyzer end to end."""
    from repro.core import analyze

    session = KernelSession(ncpus=2, iterations=80, seed=0)
    kgmon = Kgmon(session)
    session.run_slice(6)
    data = kgmon.extract("window")
    profile = analyze(data, session.symbol_table())
    entry = profile.entry("kernel_main")
    assert entry is not None and entry.percent > 0

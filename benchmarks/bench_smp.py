"""T-SMP — sharded SMP profiling: throughput, merge cost, and the
byte-identity gate.

Three measurements on the :class:`~repro.machine.smp.SMPMachine`:

* **Sharded vs global-lock gathering.**  The same workload (M
  processes of a call-heavy program) runs with per-CPU shards — each
  profiling event lands in a buffer only the executing CPU touches —
  and with the strawman layout, where every tick and every monitoring
  routine invocation takes a real ``threading.Lock`` around one shared
  buffer.  Both record the identical union of events (checked in the
  same run the speed is measured in); the committed numbers show what
  the lock costs as the machine widens.  The two layouts run in pairs,
  alternating which goes first, and ``lock_overhead`` is the median of
  the per-pair ratios with its quartiles, so a host whose speed swings
  between runs moves both halves of a pair together.

* **Merge cost vs CPU count.**  :func:`~repro.machine.smp.reduce_shards`
  folds N shard snapshots through the fleet accumulator; the trajectory
  records how that scales with N (it is O(events), not O(N·buckets),
  once shards are sparse).

* **The identity gate.**  For every CPU count x seed x policy sampled —
  and the global-lock layout — the merged ``gmon`` bytes must equal the
  single-CPU baseline's, byte for byte.  A False here makes
  ``emit_bench`` exit 2; the CI ``smp-smoke`` job leans on this.

``python -m benchmarks.emit_bench --suite smp`` writes BENCH_smp.json.
"""

from __future__ import annotations

import os
import platform
import time
from statistics import median

from benchmarks.e2e.harness import quartiles
from repro.gmon import dumps_gmon
from repro.machine import assemble
from repro.machine.programs import PROGRAMS
from repro.machine.smp import POLICIES, SMPMachine, reduce_shards

#: Workload shape: call-heavy so the monitoring routine (the part the
#: strawman wraps in a lock) dominates profiling overhead.
FULL = {
    "program": ("call_heavy", {"calls": 4000}),
    "nprocs": 4,
    "cpu_counts": (1, 2, 4, 8),
    "seeds": (0, 1, 2),
    "pairs": 9,
    "repeats": 3,
}
QUICK = {
    "program": ("call_heavy", {"calls": 600}),
    "nprocs": 4,
    "cpu_counts": (1, 2, 4),
    "seeds": (0, 1, 2),
    "pairs": 3,
    "repeats": 1,
}

CYCLES_PER_TICK = 50


def build_exe(cfg):
    name, kw = cfg["program"]
    return assemble(PROGRAMS[name](**kw), name=name, profile=True)


def build_machine(exe, cfg, ncpus, seed=0, policy="rr", sharding="percpu"):
    return SMPMachine(
        exe,
        ncpus=ncpus,
        nprocs=cfg["nprocs"],
        policy=policy,
        seed=seed,
        cycles_per_tick=CYCLES_PER_TICK,
        sharding=sharding,
    )


def paired_runs(exe, cfg, ncpus):
    """Time both layouts in ``cfg["pairs"]`` pairs, alternating which is
    first; returns ``({sharding: seconds per pair}, {sharding: machine})``.
    """
    order = ("percpu", "global-lock")
    seconds = {sharding: [] for sharding in order}
    machines = {}
    for i in range(cfg["pairs"]):
        for sharding in order if i % 2 == 0 else order[::-1]:
            machine = build_machine(exe, cfg, ncpus, sharding=sharding)
            t0 = time.perf_counter()
            machine.run()
            seconds[sharding].append(time.perf_counter() - t0)
            machines[sharding] = machine
    return seconds, machines


def merged_bytes(machine, comment):
    return dumps_gmon(machine.merged_profile(comment=comment))


def run_smp(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    exe = build_exe(cfg)
    comment = exe.name
    identical_everywhere = True

    # -- throughput: percpu shards vs the global-lock strawman ------------
    throughput_rows = []
    baseline_bytes = None
    for ncpus in cfg["cpu_counts"]:
        seconds, machines = paired_runs(exe, cfg, ncpus)
        sharded_m, locked_m = machines["percpu"], machines["global-lock"]
        sharded_s = median(seconds["percpu"])
        locked_s = median(seconds["global-lock"])
        q1, ratio, q3 = quartiles(
            lock / shard
            for lock, shard in zip(seconds["global-lock"], seconds["percpu"])
        )
        sharded_bytes = merged_bytes(sharded_m, comment)
        if baseline_bytes is None:
            baseline_bytes = sharded_bytes
        identical = (
            sharded_bytes == baseline_bytes
            and merged_bytes(locked_m, comment) == baseline_bytes
        )
        identical_everywhere &= identical
        instructions = sum(
            p.cpu.instructions_executed for p in sharded_m.procs
        )
        row = {
            "cpus": ncpus,
            "sharded_seconds": round(sharded_s, 6),
            "global_lock_seconds": round(locked_s, 6),
            "sharded_minstr_per_sec": round(instructions / sharded_s / 1e6, 3),
            "global_lock_minstr_per_sec": round(instructions / locked_s / 1e6, 3),
            "lock_overhead": round(ratio, 3),
            "lock_overhead_q1": round(q1, 3),
            "lock_overhead_q3": round(q3, 3),
            "pairs": cfg["pairs"],
            "events": sharded_m.total_ticks() + sharded_m.total_calls(),
            "byte_identical": identical,
        }
        throughput_rows.append(row)
        print(
            f"  {ncpus:>2} cpus: sharded {row['sharded_minstr_per_sec']:>7} Mi/s"
            f"  global-lock {row['global_lock_minstr_per_sec']:>7} Mi/s"
            f"  (lock {row['lock_overhead']}x [{row['lock_overhead_q1']},"
            f" {row['lock_overhead_q3']}])"
            f"  identical={identical}"
        )

    # -- merge cost vs CPU count ------------------------------------------
    merge_rows = []
    for ncpus in cfg["cpu_counts"]:
        machine = build_machine(exe, cfg, ncpus)
        machine.run()
        parts = machine.extract(comment=comment)
        best = float("inf")
        for _ in range(max(cfg["repeats"], 3)):
            t0 = time.perf_counter()
            merged = reduce_shards(
                parts, comment=comment, runs=cfg["nprocs"]
            )
            best = min(best, time.perf_counter() - t0)
        identical = dumps_gmon(merged) == baseline_bytes
        identical_everywhere &= identical
        merge_rows.append(
            {
                "shards": len(parts),
                "merge_seconds": round(best, 6),
                "merges_per_sec": round(1.0 / best, 1),
                "byte_identical": identical,
            }
        )
        print(
            f"  merge {len(parts):>2} shard(s): {round(best * 1e3, 3)} ms"
            f"  identical={identical}"
        )

    # -- the determinism gate: cpus x seeds x policies --------------------
    gate = {"schedules": 0, "mismatches": 0}
    for ncpus in cfg["cpu_counts"]:
        for seed in cfg["seeds"]:
            policy = POLICIES[(ncpus + seed) % len(POLICIES)]
            machine = build_machine(exe, cfg, ncpus, seed=seed, policy=policy)
            machine.run()
            gate["schedules"] += 1
            if merged_bytes(machine, comment) != baseline_bytes:
                gate["mismatches"] += 1
                identical_everywhere = False
    print(
        f"  gate: {gate['schedules']} schedules, "
        f"{gate['mismatches']} mismatches"
    )

    report = {
        "benchmark": "T-SMP sharded profiling",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "host_cpus": os.cpu_count(),
        "workload": {
            "program": cfg["program"][0],
            "args": cfg["program"][1],
            "nprocs": cfg["nprocs"],
            "cycles_per_tick": CYCLES_PER_TICK,
            "pairs": cfg["pairs"],
            "repeats": cfg["repeats"],
        },
        "throughput": throughput_rows,
        "merge": merge_rows,
        "identity_gate": gate,
    }
    return report, identical_everywhere

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
  the lock costs as the machine widens.  The two layouts run in
  interleaved rounds, alternating which goes first, and
  ``lock_overhead`` is the median of the per-round ratios with its
  quartiles, so a host whose speed swings between runs moves both
  halves of a round together.

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

from functools import partial

from repro.gmon import dumps_gmon
from repro.machine import assemble
from repro.machine.programs import PROGRAMS
from repro.machine.smp import POLICIES, SMPMachine, reduce_shards

from benchmarks.timing import (
    fresh_rounds, header, ratio, rounds, spread, summary,
)

#: Workload shape: call-heavy so the monitoring routine (the part the
#: strawman wraps in a lock) dominates profiling overhead.
FULL = {
    "program": ("call_heavy", {"calls": 4000}),
    "nprocs": 4,
    "cpu_counts": (1, 2, 4, 8),
    "seeds": (0, 1, 2),
    "repeats": 9,
}
QUICK = {
    "program": ("call_heavy", {"calls": 600}),
    "nprocs": 4,
    "cpu_counts": (1, 2, 4),
    "seeds": (0, 1, 2),
    "repeats": 3,
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
        seconds, machines = fresh_rounds(
            {
                sharding: partial(build_machine, exe, cfg, ncpus,
                                  sharding=sharding)
                for sharding in ("percpu", "global-lock")
            },
            cfg["repeats"],
        )
        sharded_m, locked_m = machines["percpu"], machines["global-lock"]
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
        sharded_s = summary(seconds["percpu"])
        locked_s = summary(seconds["global-lock"])
        row = {
            "cpus": ncpus,
            "sharded_seconds": sharded_s,
            "global_lock_seconds": locked_s,
            "sharded_minstr_per_sec": round(
                instructions / sharded_s["median"] / 1e6, 3
            ),
            "global_lock_minstr_per_sec": round(
                instructions / locked_s["median"] / 1e6, 3
            ),
            "lock_overhead": ratio(seconds, "global-lock", "percpu"),
            "events": sharded_m.total_ticks() + sharded_m.total_calls(),
            "byte_identical": identical,
        }
        throughput_rows.append(row)
        print(
            f"  {ncpus:>2} cpus: sharded {row['sharded_minstr_per_sec']:>7} Mi/s"
            f"  global-lock {row['global_lock_minstr_per_sec']:>7} Mi/s"
            f"  (lock {spread(row['lock_overhead'])})"
            f"  identical={identical}"
        )

    # -- merge cost vs CPU count ------------------------------------------
    merge_rows = []
    for ncpus in cfg["cpu_counts"]:
        machine = build_machine(exe, cfg, ncpus)
        machine.run()
        parts = machine.extract(comment=comment)
        seconds, merged = rounds(
            {
                "merge": lambda: reduce_shards(
                    parts, comment=comment, runs=cfg["nprocs"]
                )
            },
            cfg["repeats"],
        )
        identical = dumps_gmon(merged["merge"]) == baseline_bytes
        identical_everywhere &= identical
        merge_s = summary(seconds["merge"])
        merge_rows.append(
            {
                "shards": len(parts),
                "merge_seconds": merge_s,
                "merges_per_sec": round(1.0 / merge_s["median"], 1),
                "byte_identical": identical,
            }
        )
        print(
            f"  merge {len(parts):>2} shard(s): "
            f"{round(merge_s['median'] * 1e3, 3)} ms"
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

    return {
        **header("T-SMP sharded profiling", quick, cfg["repeats"]),
        "workload": {
            "program": cfg["program"][0],
            "args": cfg["program"][1],
            "nprocs": cfg["nprocs"],
            "cycles_per_tick": CYCLES_PER_TICK,
        },
        "throughput": throughput_rows,
        "merge": merge_rows,
        "identity_gate": gate,
    }, identical_everywhere

"""Command line: run one workload, run all four, or compare two result sets.

::

    python3 benchmarks/e2e/run.py --workload canned --seed 1 --seconds 25 --trace 0
    python -m benchmarks.e2e --seed 1 [--quick] [--trace 1] [--out runs.json]
    python -m benchmarks.e2e compare A.json B.json

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``) holding the metrics ``BENCHMARK.json`` lists:
its ``end_to_end`` ones with ``--trace 0``, its ``per_layer`` ones with
``--trace 1``.  Without ``--workload`` each workload runs in a child
process of its own, so ``peak_rss_mb`` stays per workload.  The exit
status is 0 only when every output matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import harness
from benchmarks.e2e.harness import (
    WORK_DIR,
    BootstrapError,
    fast_quartile,
    median,
    quartiles,
    tail,
)

DEFAULT_SECONDS = 25
QUICK_SECONDS = 2
SETUP_REPS = 5
RESULTS_FORMAT = "repro-e2e-results-1"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="end-to-end gprof-loop benchmark, broken down by layer",
    )
    p.add_argument("--workload", choices=harness.workloads(),
                   help="run only this workload, in this process")
    p.add_argument("--seed", type=int, default=1, help="input seed")
    p.add_argument("--seconds", type=_at_least_one, default=None,
                   help=f"timed seconds per workload, at least 1 "
                        f"(default {DEFAULT_SECONDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help=f"smoke run: {QUICK_SECONDS} s per workload, one set-up")
    p.add_argument("--spans", default=None,
                   help="traced runs: spans file (default .e2e/spans-WORKLOAD.json)")
    p.add_argument("--out", default=None,
                   help="append each run's full results to this JSON file")
    return p


def _at_least_one(text: str) -> float:
    value = float(text)
    if not value >= 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmarks.e2e compare A.json B.json",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    try:
        harness.bootstrap()
    except (BootstrapError, ImportError) as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


# -- one workload ----------------------------------------------------------------


def run_one(args) -> int:
    from benchmarks.e2e import ingest, runners

    run = {"canned": runners.run_canned, "wide": runners.run_wide,
           "fleet": runners.run_fleet, "ingest": ingest.run_ingest}
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = runners.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        setup_reps=1 if args.quick else SETUP_REPS, work=work,
    )
    try:
        run[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = summarize(args.workload, ctx)
    record.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    if ctx.trace:
        spans = Path(args.spans or WORK_DIR / f"spans-{args.workload}.json")
        harness.write_spans(spans, {k: record[k] for k in (
            "workload", "seed", "host", "inputs")}, ctx.rec)
        record["spans"] = str(spans)
    if args.out:
        append_record(args.out, record)
    print_record(record)
    names = harness.final_line_metrics(bool(args.trace))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }))
    return 0 if record["correct"] else 1


def summarize(workload: str, ctx) -> dict:
    """Turn one run's rounds into its metrics and its correctness verdict."""
    import resource

    rec = ctx.rec
    checked = [r for r in rec.rounds
               if r.kind in ("warmup", "op", "query", "query-warmup")]
    failures = [r.id for r in checked if not r.ok]
    failures += [what for what, ok in ctx.checks if not ok]
    attempted = len(checked) + len(ctx.checks)
    ops = rec.of("op", traced=False)
    lat = [r.latency * 1e3 for r in ops]
    query = ctx.query_ms or [
        (r.durations["pipeline.analyze"] + r.durations["report.render"]) * 1e3
        for r in ops]
    e2e = {"setup_s": median(r.wall for r in rec.of("setup")),
           "op_ms_p25": fast_quartile(lat), "query_ms_p25": fast_quartile(query)}
    if workload != "ingest":
        e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = harness.metrics()
    if workload in metrics["vm_minstr_per_s"].workloads:
        e2e["vm_minstr_per_s"] = fast_quartile([
            r.counts["machine.instructions"] / r.durations["machine.run"] / 1e6
            for r in ops], "higher")
    if workload in metrics["merge_files_per_s"].workloads:
        e2e["merge_files_per_s"] = fast_quartile([
            r.counts["fleet.files"] / r.durations["fleet.merge"] for r in ops],
            "higher")
    e2e.update((k, v) for k, v in ctx.extra.items() if k in metrics)
    e2e["error_rate"] = len(failures) / attempted
    pct, value, n = tail(lat)
    record = {
        "workload": workload,
        "host": harness.host_fingerprint(),
        "inputs": dict(sorted(ctx.inputs.items())),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "ops": len(ops),
        "op_ms_tail": {"percentile": pct, "value": value, "samples": n},
        "op_ms": lat,
        "query_ms": query,
        "extra": {k: v for k, v in ctx.extra.items() if k not in metrics},
    }
    if not ctx.trace:
        record["metrics"] = {k: {"value": v, "unit": metrics[k].unit}
                             for k, v in e2e.items()}
        return record
    layers = harness.layer_metrics(rec, "op")
    traced = [r.latency * 1e3 for r in rec.of("op", traced=True)]
    layers["harness.op_ms_tail"] = value
    layers["harness.span_coverage_pct"] = median(
        harness.coverage_pct(rec.spans, "op"))
    layers["harness.trace_overhead_pct"] = 100 * (median(traced) / median(lat) - 1)
    record["metrics"] = {k: {"value": layers[k], "unit": unit}
                         for k, unit in harness.per_layer()}
    return record


def print_record(record: dict) -> None:
    host = record["host"]
    print(f"e2e {record['workload']}: seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}; python "
          f"{host['python']}, nproc {host['nproc']}, kernels "
          f"{host['kernel_backend']}")
    for name, d in record["inputs"].items():
        print(f"  input {name:<22} blake2b {d}")
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    tail_ = record["op_ms_tail"]
    print(f"  op latency tail: p{tail_['percentile']:.1f} = "
          f"{tail_['value']:.3f} ms over {tail_['samples']} ops")
    for name, value in sorted(record["extra"].items()):
        print(f"  ({name} = {value:.4f})")
    print(f"  error_rate {record['failed']}/{record['attempted']}"
          + "".join(f"\n  FAILED: {f}" for f in record["failures"][:20]))
    if "spans" in record:
        print(f"  spans: {record['spans']}")


# -- results files ---------------------------------------------------------------


def load_runs(path) -> list[dict]:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != RESULTS_FORMAT:
        raise ValueError(f"{path}: not a {RESULTS_FORMAT} file")
    return doc["runs"]


def append_record(path, record: dict) -> None:
    runs = load_runs(path) if os.path.exists(path) else []
    runs.append(record)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump({"format": RESULTS_FORMAT, "runs": runs}, f, indent=1)
        f.write("\n")
    os.replace(tmp, path)


# -- all workloads ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own child process; one summary table at the end."""
    WORK_DIR.mkdir(exist_ok=True)
    out = args.out or str(WORK_DIR / f"results-{os.getpid()}.json")
    before = len(load_runs(out)) if os.path.exists(out) else 0
    codes = []
    for workload in harness.workloads():
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out]
        if args.quick:
            cmd.append("--quick")
        if args.spans:
            base, ext = os.path.splitext(args.spans)
            cmd += ["--spans", f"{base}-{workload}{ext}"]
        print(f"== {workload}", flush=True)
        codes.append(subprocess.run(cmd, timeout=900).returncode)
    runs = load_runs(out)[before:] if os.path.exists(out) else []
    if not args.out and os.path.exists(out):
        os.remove(out)
    print_table(runs)
    return 0 if codes and not any(codes) else 1


def print_table(runs: list[dict]) -> None:
    by = {r["workload"]: r for r in runs}
    names = [n for n in dict.fromkeys(n for r in runs for n in r["metrics"])]
    print("\n" + f"{'metric':<34}" + "".join(f"{w:>14}" for w in by))
    for name in names:
        cells = [f"{by[w]['metrics'][name]['value']:>14.4f}"
                 if name in by[w]["metrics"] else f"{'-':>14}" for w in by]
        unit = next(r["metrics"][name]["unit"] for r in runs
                    if name in r["metrics"])
        print(f"{name + ' (' + unit + ')':<34}" + "".join(cells))
    print(f"{'correct':<34}" + "".join(f"{str(by[w]['correct']):>14}"
                                       for w in by))


# -- compare ---------------------------------------------------------------------


def compare(a_path: str, b_path: str) -> int:
    """Medians and quartiles of two run sets; flag pairs beyond their bound.

    Exit status 1 when some (workload, metric) pair is worse in B than in
    A by more than its bound.  A pair whose run-to-run spread (quartile
    distance over median) exceeds the bound on either side is reported
    as unresolved rather than as a change.
    """
    metrics = harness.metrics()
    sets = [_values(load_runs(a_path), metrics),
            _values(load_runs(b_path), metrics)]
    order = harness.workloads()
    keys = sorted(set(sets[0]) | set(sets[1]),
                  key=lambda k: (order.index(k[0]), list(metrics).index(k[1])))
    worse = 0
    print(f"{'workload':<8} {'metric':<21} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  status")
    for key in keys:
        metric = metrics[key[1]]
        a, b = sets[0].get(key), sets[1].get(key)
        if not a or not b:
            print(f"{key[0]:<8} {key[1]:<21} only in {'B' if b else 'A'}")
            continue
        verdict, change = judge(metric, a, b)
        worse += verdict == "WORSE"
        print(f"{key[0]:<8} {key[1]:<21} {_fmt(a):>30} {_fmt(b):>30} "
              f"{change:>+7.1%} {metric.bound:>6.0%}  {verdict}")
    print(f"{worse} pair(s) worse than their bound")
    return 1 if worse else 0


def judge(metric, a: list[float], b: list[float]) -> tuple[str, float]:
    """Verdict for one pair (ok, WORSE, better or unresolved) and B's change.

    The change is relative to A's median, except for ``error_rate``,
    whose bound is absolute.
    """
    qa, qb = quartiles(a), quartiles(b)
    if metric.name == "error_rate":
        change = qb[1] - qa[1]
        return ("WORSE" if change > metric.bound else "ok"), change
    change = (qb[1] - qa[1]) / qa[1]
    worse = change if metric.better == "lower" else -change
    if worse > metric.bound:
        return "WORSE", change
    if max((q[2] - q[0]) / q[1] for q in (qa, qb)) > metric.bound:
        return "unresolved", change
    return ("better" if -worse > metric.bound else "ok"), change


def _values(runs: list[dict], metrics) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, m in run["metrics"].items():
            if name in metrics:
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"

"""Tests for the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from repro.fleet import tree_reduce
from repro.gmon import dumps_gmon
from repro.lang import compile_source
from repro.machine import make_cpu

from benchmarks.e2e import cli, harness, oracles, runners, workloads
from benchmarks.e2e.harness import ROOT, Recorder

METRICS = harness.metrics()

SMALL_SIZES = {
    "fib": {"n": 12},
    "even_odd": {"n": 31},
    "abstraction": {"iterations": 7},
    "sieve": {"limit": 300},
    "gcd_chain": {"rounds": 40},
    "classify": {"rounds": 100},
}


def _run(source: str) -> list[int]:
    cpu = make_cpu(compile_source(source, optimize_level=2))
    cpu.run()
    return cpu.output


# -- oracles --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL_SIZES))
def test_canned_oracle_matches_the_vm(name):
    from repro.lang.programs import REL_PROGRAMS

    size = SMALL_SIZES[name]
    assert _run(REL_PROGRAMS[name](**size)) == oracles.canned_output(name, size)


def test_generated_oracle_matches_the_vm():
    program = workloads.generate_program(5, "test", 40)
    assert _run(program.source) == oracles.generated_output(program)


def test_generated_oracle_catches_a_wrong_program():
    program = workloads.generate_program(5, "test", 40)
    head, _, last = program.source.rpartition("(acc * 31 +")
    broken = head + "(acc * 37 +" + last
    assert _run(broken) != oracles.generated_output(program)


def _small_fleet(tmp_path, files: int = 12):
    program = workloads.generate_program(3, "test-fleet", 30, rounds=1000)
    with Recorder().round("setup", 0) as r:
        _, blobs, bases = runners.base_profiles(r, program)
    oracle = oracles.FoldOracle(bases)
    stream = workloads.perturbations(3, "test-fleet", bases)
    paths = []
    for i in range(files):
        p = next(stream)
        oracle.add(p)
        paths.append(tmp_path / f"{i}.gmon")
        paths[-1].write_bytes(workloads.apply(blobs[p.base], bases[p.base], p))
    return paths, oracle


def test_fold_oracle_equals_the_merged_gmon_bytes(tmp_path):
    paths, oracle = _small_fleet(tmp_path)
    assert dumps_gmon(tree_reduce(paths, jobs=1)) == oracle.expected()


def test_fold_oracle_catches_a_missing_input(tmp_path):
    paths, oracle = _small_fleet(tmp_path)
    assert dumps_gmon(tree_reduce(paths[1:], jobs=1)) != oracle.expected()


def test_gmon_codec_round_trips(tmp_path):
    paths, _ = _small_fleet(tmp_path, files=1)
    blob = paths[0].read_bytes()
    g = oracles.decode_gmon(blob)
    assert oracles.encode_gmon(g.comment, g.runs, g.low_pc, g.high_pc,
                               g.profrate, g.counts, g.arcs) == blob


def test_broken_oracle_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(oracles.FoldOracle, "expected",
                        lambda self: b"not the merged profile")
    code = cli.main(["--workload", "fleet", "--seed", "1", "--seconds", "1",
                     "--quick"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] > 0 and last["attempted"] >= last["failed"]


# -- seeded inputs --------------------------------------------------------------


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert workloads.wide_program(7) == workloads.wide_program(7)
    assert workloads.wide_program(7).source != workloads.wide_program(8).source
    a, b = workloads.canned_orders(4), workloads.canned_orders(4)
    assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]


def test_perturbed_files_are_byte_identical_per_seed():
    counts = [0, 3, 0, 5, 1, 0, 2, 9]
    arcs = [(4, 8, 2), (4, 12, 7), (16, 20, 1)]
    blob = oracles.encode_gmon(b"", 1, 0, 32, 60, counts, arcs)
    base = oracles.decode_gmon(blob)

    def files(seed):
        stream = workloads.perturbations(seed, "t", [base, base])
        return [workloads.apply(blob, base, next(stream)) for _ in range(20)]

    assert files(1) == files(1)
    assert files(1) != files(2)


def test_generated_programs_have_the_same_size_mix_for_every_seed():
    def mix(seed):
        rs = workloads.generate_program(seed, "wide", 200).routines
        return (sorted(r.loop for r in rs), sorted(r.burn for r in rs),
                sorted(len(r.callees) for r in rs))

    assert mix(1) == mix(2)


# -- spans ----------------------------------------------------------------------


def _span(sid, parent, name, start, end, op="op-1"):
    return {"id": sid, "parent": parent, "op": op, "name": name,
            "start_ms": start, "end_ms": end}


def test_self_time_subtracts_exactly_the_children():
    spans = [
        _span(1, None, "op", 0, 100),
        _span(2, 1, "program", 5, 65),
        _span(3, 2, "lang.parse", 10, 30),
        _span(4, 2, "machine.run", 30, 60),
        _span(5, 1, "report.render", 70, 95),
    ]
    assert harness.self_times(spans) == {1: 15, 2: 10, 3: 20, 4: 30, 5: 25}
    assert harness.coverage_pct(spans, "op") == [75.0]


def test_round_accounts_self_time_per_layer(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    rec = Recorder()  # t0 = 0
    with rec.round("op", 1, traced=True) as r:  # 1 .. 12
        with r.span("program"):  # 2 .. 11
            with r.span("lang.parse"):  # 5 .. 6
                pass
            with r.span("machine.run"):  # 7 .. 10
                pass
    assert r.layers == {"lang.parse": 1.0, "machine.run": 3.0}
    assert r.durations["program"] == 9.0
    spans = [s for s in rec.spans if s["op"] == "op-1"]
    assert [s["name"] for s in spans] == ["lang.parse", "machine.run",
                                          "program", "op"]
    root = spans[-1]
    assert all(s["parent"] is not None for s in spans[:-1])
    assert root["parent"] is None


def test_tail_is_the_percentile_with_ten_samples_beyond():
    pct, value, n = harness.tail(range(1, 26))
    assert (pct, value, n) == (60.0, 15, 25)
    assert harness.tail([3, 1, 2]) == (100.0, 3, 3)


# -- compare --------------------------------------------------------------------


@pytest.mark.parametrize("a, b, verdict", [
    ([100, 101, 99, 100], [110, 111, 109, 110], "ok"),
    ([100, 101, 99, 100], [130, 131, 129, 130], "WORSE"),
    ([100, 101, 99, 100], [70, 71, 69, 70], "better"),
    ([100, 50, 150, 100], [101, 51, 151, 101], "unresolved"),
])
def test_judge_applies_the_bound(a, b, verdict):
    assert cli.judge(METRICS["op_ms_p25"], a, b)[0] == verdict


def test_judge_reads_higher_is_better_metrics_the_right_way():
    m = METRICS["merge_files_per_s"]
    assert cli.judge(m, [5000] * 3, [3000] * 3)[0] == "WORSE"
    assert cli.judge(m, [5000] * 3, [7000] * 3)[0] == "better"


def test_error_rate_bound_is_absolute():
    m = METRICS["error_rate"]
    assert cli.judge(m, [0, 0, 0], [0, 0, 0])[0] == "ok"
    assert cli.judge(m, [0, 0, 0], [0, 0.1, 0.1])[0] == "WORSE"


def test_compare_exits_1_only_on_a_regression(tmp_path, capsys):
    def results(path, ms):
        runs = [{"workload": "wide", "trace": 0, "metrics": {
            "op_ms_p25": {"value": v, "unit": "ms"}}} for v in ms]
        path.write_text(json.dumps({"format": cli.RESULTS_FORMAT, "runs": runs}))
        return str(path)

    a = results(tmp_path / "a.json", [100, 101, 99])
    same = results(tmp_path / "b.json", [100, 102, 98])
    slow = results(tmp_path / "c.json", [130, 131, 129])
    assert cli.compare(a, same) == 0
    assert cli.compare(a, slow) == 1
    assert "WORSE" in capsys.readouterr().out


# -- the benchmark contract -----------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = harness.spec()
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == cli.DEFAULT_SECONDS
    assert max(m["bound"] for m in spec["end_to_end"]) == METRICS["setup_s"].bound
    assert not ({m["name"] for m in spec["end_to_end"]}
                & {m.name for m in harness.SCOPED})
    names = {name for name, _ in harness.per_layer()}
    assert set(harness.layer_metrics(Recorder(), "op")) == {
        n for n in names if not n.startswith("harness.")}


def test_without_the_program_the_benchmark_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "canned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

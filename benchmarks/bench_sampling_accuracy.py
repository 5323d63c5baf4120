"""T-SAMPLING — §3.2: statistical sampling accuracy vs granularity.

"On the other hand, the program must run for enough sampled intervals
that the distribution of the samples accurately represents the
distribution of time for the execution of the program."

We run a program whose ground-truth time split is known exactly (three
routines burning cycles in ratio 1:2:4 via ``WORK``), sweep the
profiling clock period, and measure the error between the sampled
distribution and the true cycle distribution.  Shape to reproduce:
error shrinks roughly like 1/sqrt(number of samples), so refining the
tick interval by 100x cuts the error by about 10x.
"""

import math

from repro.machine import CPU, Monitor, MonitorConfig, assemble

from benchmarks.conftest import report

SOURCE = """
.func main
    PUSH 120
    STORE 0
loop:
    CALL light
    CALL medium
    CALL heavy
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

.func light
    WORK 50
    RET
.end

.func medium
    WORK 100
    RET
.end

.func heavy
    WORK 200
    RET
.end
"""

#: Ground-truth self-cycle weights: WORK body + prologue costs are tiny
#: relative to the WORK payloads, so 50:100:200 is the target split.
TRUTH = {"light": 50, "medium": 100, "heavy": 200}


def sampled_error(cycles_per_tick: int) -> tuple[float, int]:
    """(max abs share error, samples) at a given clock granularity."""
    exe = assemble(SOURCE, profile=True)
    mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc,
                                cycles_per_tick=cycles_per_tick))
    CPU(exe, mon).run()
    times = mon.histogram.time_for_symbols(exe.symbol_table())
    in_scope = {k: times.get(k, 0.0) for k in TRUTH}
    total = sum(in_scope.values()) or 1.0
    truth_total = sum(TRUTH.values())
    err = max(
        abs(in_scope[k] / total - TRUTH[k] / truth_total) for k in TRUTH
    )
    return err, mon.histogram.total_ticks


def test_error_shrinks_with_sample_count(benchmark):
    rows = []
    errors = {}
    for interval in (2000, 500, 100, 20, 5):
        err, n = sampled_error(interval)
        errors[interval] = (err, n)
        rows.append((interval, n, f"{100 * err:.2f}%",
                     f"{1 / math.sqrt(n):.4f}" if n else "-"))
    report(
        "Sampling error vs clock period (ground-truth split 1:2:4)",
        rows,
        header=("cycles/tick", "samples", "max share err", "1/sqrt(n)"),
    )
    benchmark(lambda: sampled_error(100))
    # Coarse clocks err more than fine clocks; the finest is accurate.
    assert errors[5][0] <= errors[2000][0]
    assert errors[5][0] < 0.02
    # ~1/sqrt(n) scaling: 400x the samples should cut error well below
    # half (allow generous slack — it's a statistical claim).
    if errors[2000][0] > 0:
        assert errors[5][0] < errors[2000][0] * 0.7


def test_sampling_cost_is_free_for_the_program(benchmark):
    """The histogram is maintained by the 'kernel': the profiled
    program pays cycles for mcount, never for PC sampling."""
    exe = assemble(SOURCE, profile=True)

    def run_with(interval):
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc,
                                    cycles_per_tick=interval))
        return CPU(exe, mon).run().cycles

    coarse = run_with(2000)
    fine = run_with(5)
    benchmark(lambda: run_with(100))
    report(
        "Program cycles at different sampling rates",
        [("cycles/tick=2000", coarse), ("cycles/tick=5", fine)],
    )
    assert coarse == fine

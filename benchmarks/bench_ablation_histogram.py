"""A-HIST — histogram granularity ablation: memory vs accuracy.

"The space for the histogram could be controlled by getting a finer or
coarser histogram" (retrospective); the paper's authors, newly arrived
on 32-bit machines, "felt quite expansive" and ran one-to-one.  This
ablation sweeps the scale knob from the 16-bit-era configurations to
the expansive one and measures what coarseness costs: buckets spanning
routine boundaries smear samples across neighbours.

Shape: attribution error falls monotonically-ish as buckets shrink,
hitting zero (exact apportionment) at one bucket per address; memory
grows linearly with scale.  The trade the knob exists to make.
"""

import pytest

from repro.machine import assemble, CPU, Monitor, MonitorConfig

from benchmarks.conftest import report

#: Deliberately tiny routines next to big ones, so coarse buckets smear.
SOURCE = """
.func main
    PUSH 200
    STORE 0
loop:
    CALL tiny1
    CALL tiny2
    CALL big
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

.func tiny1
    WORK 3
    RET
.end

.func tiny2
    WORK 9
    RET
.end

.func big
    WORK 50
    RET
.end
"""


def run_at_scale(scale: float):
    exe = assemble(SOURCE, profile=True)
    mon = Monitor(
        MonitorConfig(exe.low_pc, exe.high_pc, scale=scale, cycles_per_tick=7)
    )
    CPU(exe, mon).run()
    times = mon.histogram.time_for_symbols(exe.symbol_table())
    return mon.histogram, times


def reference_split():
    """The exact split, from the one-to-one configuration."""
    _, times = run_at_scale(1.0)
    total = sum(times.values())
    return {k: v / total for k, v in times.items()}


def test_scale_sweep(benchmark):
    truth = reference_split()
    rows = []
    errors = {}
    for scale in (1.0, 0.25, 0.1, 0.05, 0.02):
        hist, times = run_at_scale(scale)
        total = sum(times.values()) or 1.0
        err = max(
            abs(times.get(k, 0.0) / total - truth[k]) for k in truth
        )
        errors[scale] = err
        rows.append(
            (scale, hist.num_buckets, f"{100 * err:.2f}%")
        )
    report(
        "Histogram scale: buckets (memory) vs worst attribution error",
        rows,
        header=("scale", "buckets", "max err"),
    )
    benchmark(lambda: run_at_scale(0.25))
    assert errors[1.0] == pytest.approx(0.0, abs=1e-12)
    assert errors[0.02] > errors[1.0]
    # coarse histograms still conserve total time (apportionment is
    # fractional, never lossy)
    hist, times = run_at_scale(0.02)
    assert sum(times.values()) == pytest.approx(hist.total_time)


def test_same_ticks_every_scale(benchmark):
    """Granularity changes *where* ticks land, never how many."""
    counts = {}
    for scale in (1.0, 0.1, 0.02):
        hist, _ = run_at_scale(scale)
        counts[scale] = hist.total_ticks
    report("Total ticks across scales", sorted(counts.items()))
    benchmark(lambda: run_at_scale(1.0))
    assert len(set(counts.values())) == 1

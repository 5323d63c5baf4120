"""Live kernel profiling with kgmon — the retrospective's second act.

Run:  python examples/kernel_profiling.py

The simulated time-sharing kernel keeps running while we:

1. let it warm up with profiling OFF (no overhead for users);
2. turn profiling ON for a window of interest, extract, reset;
3. analyze the window and hit the problem the retrospective describes:
   the networking stack's layers are fused into one big cycle by two
   rarely-traversed arcs (loopback delivery and TCP ACKs), so no layer
   can be timed separately;
4. remove exactly those arcs (the ``-k`` option) and watch per-layer
   attribution come back, at the cost of a quantified, tiny loss of
   call information.
"""

from repro.core import AnalysisOptions, analyze
from repro.core.arcremoval import information_lost
from repro.kernel import CYCLE_CLOSING_ARCS, Kgmon, KernelSession
from repro.report import format_graph_profile


def main():
    session = KernelSession(iterations=600)
    kgmon = Kgmon(session)

    # 1. Warm-up: the kernel serves "users"; the profiler is off.
    kgmon.off()
    for _ in range(3):
        session.run_slice(6)
    print(f"warm-up done: {kgmon.status().kernel_cycles} kernel cycles, "
          f"{kgmon.status().ticks} ticks gathered (profiling was off)\n")

    # 2. Profile a window of steady-state activity.
    kgmon.reset()
    kgmon.on()
    while session.run_slice(6):
        if kgmon.status().ticks > 1500:
            break
    kgmon.off()
    window = kgmon.extract("steady-state window")
    symbols = session.symbol_table()
    print(f"window extracted: {window.total_ticks} ticks, "
          f"{window.total_calls} calls "
          f"(kernel {'halted' if session.halted else 'still running'})\n")

    # 3. Naive analysis: the whole network stack is one cycle.
    fused = analyze(window, symbols)
    cycle = fused.numbered.cycles[0]
    print(f"PROBLEM — one cycle fuses {len(cycle.members)} routines: "
          f"{', '.join(cycle.members)}")
    closing = [
        (a, b, fused.graph.arc(a, b).count) for a, b in CYCLE_CLOSING_ARCS
    ]
    pipeline = fused.graph.arc("ip_output", "if_output").count
    for a, b, count in closing:
        print(f"  closing arc {a} -> {b}: only {count} traversals "
              f"(the pipeline itself carries {pipeline})")
    print()

    # 4. Remove the closing arcs and re-analyze.
    unfused = analyze(
        window, symbols, AnalysisOptions(deleted_arcs=CYCLE_CLOSING_ARCS)
    )
    assert unfused.numbered.cycles == []
    lost = information_lost(unfused.removed_arcs, window.total_calls)
    print(f"FIX — removed {len(unfused.removed_arcs)} arcs; "
          f"information lost: {100 * lost:.2f}% of call traversals\n")
    print("network stack, now separable (graph profile excerpt):")
    stack = {"netisr", "ip_input", "tcp_input", "tcp_output",
             "ip_output", "if_output", "sock_send", "sys_send"}
    print(format_graph_profile(unfused, only=stack))


if __name__ == "__main__":
    main()

"""The VM substrate: programs with real program counters to profile.

High-level helpers:

* :func:`run_profiled` — assemble with monitoring prologues, execute
  with a sampling monitor attached, return (cpu, profile data).
* :func:`run_unprofiled` — the control: same program, no profiling.
"""

from __future__ import annotations

from repro.core.profiledata import ProfileData
from repro.machine.assembler import Asm, assemble
from repro.machine.blockcounts import BlockCount, block_counts, format_block_counts
from repro.machine.cpu import CPU, Frame, InterruptSource
from repro.machine.crawl import static_arcs, static_call_graph
from repro.machine.executable import Executable, Function
from repro.machine.fastcpu import ENGINES, FastCPU, make_cpu, predecode
from repro.machine.isa import INSTRUCTION_SIZE, Instruction, Op
from repro.machine.mcount import ArcBuffer, ArcTable, ArcTableStats
from repro.machine.monitor import Monitor, MonitorConfig
from repro.machine.smp import (
    CPUShard,
    GlobalLockMonitor,
    SMPMachine,
    ShardedMonitor,
    SliceScheduler,
    reduce_shards,
)

__all__ = [
    "ArcBuffer",
    "ArcTable",
    "ArcTableStats",
    "Asm",
    "BlockCount",
    "CPU",
    "CPUShard",
    "ENGINES",
    "FastCPU",
    "GlobalLockMonitor",
    "SMPMachine",
    "ShardedMonitor",
    "SliceScheduler",
    "reduce_shards",
    "block_counts",
    "format_block_counts",
    "Executable",
    "Frame",
    "Function",
    "INSTRUCTION_SIZE",
    "Instruction",
    "InterruptSource",
    "Monitor",
    "MonitorConfig",
    "Op",
    "assemble",
    "make_cpu",
    "predecode",
    "run_profiled",
    "run_unprofiled",
    "static_arcs",
    "static_call_graph",
]


def run_profiled(
    source: Asm | str,
    name: str = "a.out",
    cycles_per_tick: int = 100,
    scale: float = 1.0,
    profrate: int = 60,
    max_instructions: int | None = None,
    engine: str = "fast",
) -> tuple[CPU, ProfileData]:
    """Assemble ``source`` with profiling, run it, condense the data.

    The one-call equivalent of "compile with the profiling option, run,
    and pick up gmon.out".  Returns the finished CPU (for cycle counts
    and program output) and the condensed :class:`ProfileData`.
    ``engine`` selects the interpreter: the predecoded fast engine (the
    default) or the ``"reference"`` baseline — both produce identical
    profiles.
    """
    exe = assemble(source, name=name, profile=True)
    monitor = Monitor(
        MonitorConfig(
            exe.low_pc,
            exe.high_pc,
            scale=scale,
            cycles_per_tick=cycles_per_tick,
            profrate=profrate,
        )
    )
    cpu = make_cpu(exe, monitor, engine=engine)
    cpu.run(max_instructions=max_instructions)
    return cpu, monitor.mcleanup(comment=name)


def run_unprofiled(
    source: Asm | str,
    name: str = "a.out",
    max_instructions: int | None = None,
    engine: str = "fast",
) -> CPU:
    """Assemble ``source`` without profiling and run it (the control
    case for overhead measurements)."""
    exe = assemble(source, name=name, profile=False)
    cpu = make_cpu(exe, engine=engine)
    cpu.run(max_instructions=max_instructions)
    return cpu

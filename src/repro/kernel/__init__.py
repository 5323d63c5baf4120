"""The simulated time-sharing kernel and its live profiling interface.

:class:`KernelSession` runs the kernel on an N-CPU machine (one CPU by
default) in slices of scheduling rounds; :class:`Kgmon` turns profiling
on and off, extracts merged windows and resets them while it runs.
"""

from repro.kernel.build import (
    CYCLE_CLOSING_ARCS,
    NETWORK_CYCLE,
    build_kernel_source,
)
from repro.kernel.kgmon import Kgmon, KgmonStatus, KernelSession

__all__ = [
    "CYCLE_CLOSING_ARCS",
    "Kgmon",
    "KgmonStatus",
    "KernelSession",
    "NETWORK_CYCLE",
    "build_kernel_source",
]

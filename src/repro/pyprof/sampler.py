"""Statistical sampling for Python programs (§3.2).

The paper's preferred method "samples the value of the program counter
at some interval, and infers execution time from the distribution of
the samples".  :class:`Sampler` is the one profiling clock; at every
tick it hands the interrupted frame to a *sink*.  It has two modes:

* ``"signal"`` — the faithful one: ``setitimer(ITIMER_PROF)`` delivers
  SIGPROF as *CPU time* elapses, exactly like the original kernel's
  clock-tick histogram ("alarm clock interrupts that run relative to
  program time").  Main-thread, Unix only.
* ``"thread"`` — a portable fallback: a daemon thread wakes every
  ``interval`` wall-clock seconds and samples the target thread's
  current frame via ``sys._current_frames()``.  Wall-clock ticks also
  land while the target is blocked — closer to elapsed-time profiling,
  which the paper notes "is complicated on time-sharing systems".

Two sinks use it.  :meth:`SampleStore.sample_frame` charges each tick
to the code object executing at the tick, at an address inside that
routine's block, accumulating the histogram the post-processor expects
(:class:`~repro.pyprof.profiler.Profiler`'s sampling modes).
:class:`~repro.stacks.pysampler.PyStackSampler` records the whole
stack, whose leaf is the same sample.  Samples are counted, never
traced — keeping run-time cost per tick tiny, as §3.2 demands.
"""

from __future__ import annotations

import signal
import sys
import threading
from collections import Counter
from collections.abc import Callable
from types import FrameType

from repro.errors import ProfilerError
from repro.pyprof.addresses import AddressSpace, describe_code
from repro.pyprof.tracer import _module_of, is_internal_code


class SampleStore:
    """Tick counts per synthetic address: the PC-sample sink.

    With ``record_lines=True`` each sample is additionally charged to
    its ``(filename, line number)`` — the raw material of annotated
    source listings (:mod:`repro.pyprof.annotate`).
    """

    def __init__(self, space: AddressSpace, record_lines: bool = False):
        self.space = space
        self.ticks: Counter[int] = Counter()
        self.record_lines = record_lines
        self.line_ticks: Counter[tuple[str, int]] = Counter()

    def sample_frame(self, frame: FrameType | None) -> None:
        """Record one tick against the routine executing in ``frame``.

        Ticks landing inside the profiler's own machinery (the arc
        callback, this handler) are charged to the nearest profiled
        caller instead — the kernel never billed its histogram code to
        the program either.
        """
        while frame is not None and is_internal_code(frame.f_code):
            frame = frame.f_back
        if frame is None:
            return
        code = frame.f_code
        pc = self.space.call_site(
            code, describe_code(code), frame.f_lasti, _module_of(code)
        )
        self.ticks[pc] += 1
        if self.record_lines:
            self.line_ticks[(code.co_filename, frame.f_lineno)] += 1


#: The sampler's clocks: SIGPROF on consumed CPU time, or a wall-clock
#: thread.
SAMPLING_MODES = ("signal", "thread")


class Sampler:
    """A profiling clock that hands each tick's frame to ``sink``.

    Arguments:
        sink: called with the sampled frame (None when the target has
            none) at every tick.
        interval: profiling clock period in seconds.  1/60 s is the
            paper's clock; modern machines afford far finer.
        mode: ``"signal"`` (SIGPROF / CPU time, Unix main thread) or
            ``"thread"`` (wall clock, portable; samples the thread that
            called :meth:`start`).

    Usable as a context manager.
    """

    def __init__(
        self,
        sink: Callable[[FrameType | None], None],
        interval: float = 0.001,
        mode: str = "signal",
    ):
        if interval <= 0:
            raise ProfilerError(f"interval must be positive, got {interval}")
        if mode not in SAMPLING_MODES:
            raise ProfilerError(f"unknown mode {mode!r}")
        self.sink = sink
        self.interval = interval
        self.mode = mode
        self._previous_handler = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_id: int | None = None
        self.active = False

    def start(self) -> None:
        """Arm the profiling clock."""
        if self.active:
            raise ProfilerError("sampler is already active")
        if self.mode == "signal":
            if threading.current_thread() is not threading.main_thread():
                raise ProfilerError("signal mode must start on the main thread")
            self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        else:
            self._target_id = threading.get_ident()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run_thread, name="repro-sampler", daemon=True
            )
            self._thread.start()
        self.active = True

    def stop(self) -> None:
        """Disarm the clock and restore the previous handler (idempotent)."""
        if not self.active:
            return
        if self.mode == "signal":
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)
        else:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.active = False

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _on_signal(self, signum, frame: FrameType | None) -> None:
        self.sink(frame)

    def _run_thread(self) -> None:
        while not self._stop.wait(self.interval):
            self.sink(sys._current_frames().get(self._target_id))

    @property
    def profrate(self) -> int:
        """Nominal ticks per second."""
        return max(round(1.0 / self.interval), 1)

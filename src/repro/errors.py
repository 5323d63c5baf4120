"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SymbolError(ReproError):
    """A symbol table is malformed or a lookup cannot be satisfied."""


class HistogramError(ReproError):
    """A PC-sample histogram is malformed or incompatible."""


class GmonFormatError(ReproError):
    """A profile data file is corrupt or has an unsupported version."""


class CallGraphError(ReproError):
    """A call graph operation received inconsistent input."""


class PropagationError(ReproError):
    """Time propagation encountered an impossible state (e.g. an
    unnumbered node or a cycle that survived collapsing)."""


class AssemblerError(ReproError):
    """The VM assembler rejected a source program."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MachineError(ReproError):
    """The VM interpreter faulted (bad opcode, stack underflow, ...)."""


class LangError(ReproError):
    """The Rel compiler rejected a source program."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StageOrderError(ReproError):
    """A stage list runs a stage before any earlier stage provides
    what it requires (a compiler pass list or the §4 analysis)."""


class MergeError(ReproError):
    """Two profile data sets cannot be summed (incompatible layouts).

    Structured: when the failure concerns a specific input file the
    ``path`` attribute names it, and ``expected``/``actual`` carry the
    two histogram layouts (as :class:`repro.fleet.headers.HeaderKey`
    or plain tuples) so fleet-scale drivers can report *which* of a
    thousand inputs broke the merge without string-parsing.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        expected: object = None,
        actual: object = None,
    ):
        self.path = path
        self.expected = expected
        self.actual = actual
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ProfilerError(ReproError):
    """The Python-level profiler was used incorrectly (e.g. nested
    activation or extraction before any data was gathered)."""


class KernelError(ReproError):
    """The simulated kernel or its kgmon control interface failed."""


class KernelBackendError(ReproError):
    """A bulk kernel (repro.core.kernels) was fed inconsistent shapes:
    a bucket vector whose length does not match the accumulated
    layout."""

"""repro.core.kernels: the bulk kernels of the data plane.

The paper's data plane is four kinds of arithmetic repeated at fleet
scale: summing histogram buckets, condensing ``(from_pc, self_pc)``
arc records, apportioning bucket ticks to routines (§3.2), and pushing
time up the topological order (§4).  Each kernel has exactly one
production implementation, and the only thing that picks it is whether
numpy imports:

* bucket fold: :class:`NumpyBucketAccumulator`, else the reference
  :class:`BucketAccumulator` (:func:`bucket_accumulator`);
* arc fold: :class:`NumpyArcTable`, else the reference
  :class:`ArcTable` (:func:`arc_table`);
* apportion: :func:`apportion`, a stdlib prefix sum, on every host;
* propagate: the scalar plan solve of :mod:`repro.core.kernels.prop`,
  on every host.

Each production implementation is the fastest one measured on the
benchmark's inputs, all of which run with numpy (EXPERIMENTS.md,
T-KERN).  The python reference classes and
:func:`~repro.core.kernels.spans.apportion_python` stay as the spec:
scalar loops that transcribe the paper's arithmetic one bucket / one
record at a time, which the production paths must equal exactly.  The
integer folds are exact, and apportionment performs the same float
operations on the same values as its reference (see
:mod:`repro.core.kernels.spans`).  The equivalence is gated twice — a
hypothesis suite (``tests/test_kernels_equivalence``) and the T-KERN
byte-identity benchmark (exit 2 on divergence).

:data:`HAVE_NUMPY` is read each time a fold factory runs, so a test can
run the no-numpy path in-process by patching it; it is a fact about the
host, not a user option.
"""

from __future__ import annotations

from repro.errors import KernelBackendError

from repro.core.kernels.arcs import ArcTable, NumpyArcTable
from repro.core.kernels.buckets import (
    BucketAccumulator,
    NumpyBucketAccumulator,
)
from repro.core.kernels.spans import (
    SymbolSpans,
    apportion,
    build_spans,
    spans_for,
)

try:  # pragma: no cover - which branch runs depends on the host
    import numpy as _np  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False


def bucket_accumulator() -> BucketAccumulator:
    """A fresh production bucket accumulator for this host."""
    return NumpyBucketAccumulator() if HAVE_NUMPY else BucketAccumulator()


def arc_table() -> ArcTable:
    """A fresh production arc table for this host."""
    return NumpyArcTable() if HAVE_NUMPY else ArcTable()


def default_backend_name() -> str:
    """``"numpy"`` when the folds run on numpy, else ``"python"``."""
    return "numpy" if HAVE_NUMPY else "python"


__all__ = [
    "HAVE_NUMPY",
    "ArcTable",
    "BucketAccumulator",
    "KernelBackendError",
    "NumpyArcTable",
    "NumpyBucketAccumulator",
    "SymbolSpans",
    "apportion",
    "arc_table",
    "bucket_accumulator",
    "build_spans",
    "default_backend_name",
    "spans_for",
]

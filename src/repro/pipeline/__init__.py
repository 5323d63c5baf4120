"""repro.pipeline — the staged, observable, cache-aware pass manager.

The §4 post-processing that used to live inside one ``analyze()``
function is decomposed here into three pieces:

* :mod:`~repro.pipeline.stages` — the passes themselves, as registered
  :class:`Stage` objects over a :class:`PipelineState` blackboard;
* :mod:`~repro.pipeline.runner` — :func:`run_analysis`, which walks the
  stage list with per-stage wall-time/counter tracing
  (:class:`PipelineTrace`) and content-addressed memoization
  (:class:`AnalysisCache`), one cache group at a time;
* :mod:`~repro.pipeline.session` — :class:`ProfileSession`, the shared
  read → salvage → merge → lint → analyze plumbing every CLI frontend
  rides.

``repro.core.analyze`` delegates to :func:`run_analysis`; the golden
gate (``tests/golden/``) pins the staged pipeline's output to be
byte-identical to the pre-refactor monolith, cache cold or warm.

:class:`Stage`, :class:`StageTrace` and :class:`PipelineTrace` live in
:mod:`repro.trace`, shared with the compiler passes; this package
re-exports them.
"""

from repro.pipeline.cache import AnalysisCache
from repro.pipeline.runner import GROUPS, compute_keys, run_analysis
from repro.pipeline.session import ProfileSession
from repro.pipeline.stages import STAGE_BY_NAME, STAGES, PipelineState
from repro.trace import PipelineTrace, Stage, StageTrace

__all__ = [
    "AnalysisCache",
    "GROUPS",
    "PipelineState",
    "PipelineTrace",
    "ProfileSession",
    "STAGES",
    "STAGE_BY_NAME",
    "Stage",
    "StageTrace",
    "compute_keys",
    "run_analysis",
]

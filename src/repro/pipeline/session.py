"""ProfileSession: one image, its gmon inputs, one analysis cache.

Every frontend used to re-implement the same plumbing — load the image,
expand gmon arguments, read (strictly or through the salvaging parser),
merge, lint, analyze.  ``ProfileSession`` is that plumbing, once:

* :meth:`from_image` loads a VM executable or a bare symbol table;
* :meth:`load` expands specs and merges them (the fleet merge driver,
  or the per-file salvaging loop that keeps each file's
  :class:`~repro.gmon.SalvageReport`);
* :meth:`read_each` reads files individually (what ``repro-check``
  wants — each file is validated on its own, not merged);
* :meth:`lint` runs the :mod:`repro.check` battery against everything
  read so far, folding in the GP4xx diagnostics the readers produced;
* :meth:`analyze` runs the staged §4 pipeline with a session-shared
  :class:`~repro.pipeline.cache.AnalysisCache`, so a frontend that
  analyzes twice (``repro-gprof --lint`` lints, then renders) pays for
  one analysis.

The session accumulates degradation evidence as it reads:
``salvage_reports`` (per recovered file) and ``gmon_diagnostics``
(GP4xx findings), both in input order, both deterministic.
"""

from __future__ import annotations

import json

from repro.core import AnalysisOptions, SymbolTable, analyze
from repro.core.profiledata import ProfileData
from repro.fleet import ProfileAccumulator, expand_inputs, tree_reduce
from repro.gmon import read_gmon, salvage_gmon
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.trace import PipelineTrace


class ProfileSession:
    """The shared read → salvage → merge → lint → analyze entry point.

    Attributes:
        symbols: the image's symbol table (None for sessions that only
            merge — ``repro-merge`` needs no image).
        exe: the VM executable, when the image was one (None for bare
            symbol tables — lint and static crawling need an exe).
        cache: the session's :class:`AnalysisCache`; every
            :meth:`analyze` call shares it.
        paths: every gmon path read so far, in input order.
        salvage_reports: ``(path, SalvageReport)`` for each salvaged
            file, in input order (clean reports included).
        gmon_diagnostics: GP4xx diagnostics gathered while reading
            (salvage drops/repairs, degradation warnings).
    """

    def __init__(
        self,
        symbols: SymbolTable | None,
        exe=None,
        cache: AnalysisCache | None = None,
    ) -> None:
        self.symbols = symbols
        self.exe = exe
        self.cache = cache if cache is not None else AnalysisCache()
        self.paths: list[str] = []
        self.salvage_reports: list[tuple[str, object]] = []
        self.gmon_diagnostics: list = []

    @classmethod
    def from_image(
        cls, path: str, cache: AnalysisCache | None = None
    ) -> "ProfileSession":
        """Open an image file: a VM executable or a bare symbol table."""
        with open(path, encoding="utf-8") as f:
            blob = json.load(f)
        if isinstance(blob, dict) and blob.get("format") == "repro-vmexe-1":
            from repro.machine import Executable

            exe = Executable.from_dict(blob)
            return cls(exe.symbol_table(), exe=exe, cache=cache)
        return cls(SymbolTable.from_dict(blob), cache=cache)

    @classmethod
    def from_executable(
        cls, exe, cache: AnalysisCache | None = None
    ) -> "ProfileSession":
        """Wrap an already-built VM executable."""
        return cls(exe.symbol_table(), exe=exe, cache=cache)

    # -- reading ---------------------------------------------------------

    def load(
        self,
        specs,
        *,
        salvage: bool = False,
        on_incompatible: str = "error",
        per_file_reports: bool = True,
        stats_out: dict | None = None,
    ) -> ProfileData:
        """Expand ``specs`` and merge every input into one ProfileData.

        Strict mode rides the :mod:`repro.fleet` merge driver.  Salvage
        mode reads file by file so each one's :class:`SalvageReport`
        survives — they land in :attr:`salvage_reports`, their GP4xx
        findings in :attr:`gmon_diagnostics`, and the recovered data
        merges with its degradation warnings attached.  Pass
        ``per_file_reports=False`` to salvage through the merge driver
        instead: no reports are kept, but the header precheck (and
        ``on_incompatible``) applies and ``stats_out`` is filled; the
        recovered data still carries its degradation warnings.
        ``stats_out`` is handed to :func:`tree_reduce` to collect the
        kernel backend and parse/fold wall-time split.
        """
        paths = expand_inputs(specs)
        self.paths += [str(p) for p in paths]
        if not salvage or not per_file_reports:
            return tree_reduce(
                paths, salvage=salvage,
                on_incompatible=on_incompatible,
                stats_out=stats_out,
            )
        from repro.check import salvage_passes

        acc = ProfileAccumulator()
        for p in paths:
            data, report = salvage_gmon(p)
            self.salvage_reports.append((str(p), report))
            self.gmon_diagnostics += salvage_passes(report)
            acc.add_profile(data, source=str(p))
        return acc.result()

    def read_each(self, paths, *, salvage: bool = False) -> list[ProfileData]:
        """Read each gmon file on its own (no merging).

        Diagnostics accumulate exactly as in :meth:`load`; strict reads
        additionally contribute GP4xx degradation findings for files
        that carry salvage warnings from an earlier recovery.
        """
        from repro.check import degradation_passes, salvage_passes

        profiles = []
        for path in paths:
            if salvage:
                data, report = salvage_gmon(path)
                self.salvage_reports.append((str(path), report))
                self.gmon_diagnostics += salvage_passes(report)
            else:
                data = read_gmon(path)
                self.gmon_diagnostics += degradation_passes(data)
            self.paths.append(str(path))
            profiles.append(data)
        return profiles

    # -- checking --------------------------------------------------------

    def lint(self, profiles, labels, *, flow: bool = False):
        """Run the full :mod:`repro.check` battery against this image.

        Requires a VM executable.  The report folds in every GP4xx
        diagnostic the session's readers collected.  With ``flow``
        set, the dataflow battery (GP601–GP605) and the per-profile
        expectation checks (GP610–GP612) run too, reusing this
        session's memoized :meth:`flow` analysis.
        """
        from repro.check import CheckReport, check_executable
        from repro.check.diagnostics import merge_reports
        from repro.errors import ReproError

        if self.exe is None:
            raise ReproError("linting needs a VM executable image")
        report = check_executable(
            self.exe, profiles, labels, flow=flow,
            flow_analysis=self.flow() if flow else None,
        )
        if self.gmon_diagnostics:
            report = merge_reports(
                self.exe.name,
                [report, CheckReport(self.exe.name, self.gmon_diagnostics)],
            )
        return report

    def flow(self):
        """The dataflow analysis of this image, memoized in the cache.

        The whole :class:`~repro.check.flow.FlowAnalysis` — CFGs,
        dominator trees, loops, stack summaries, interval results, and
        the static predicted profile — is one cacheable stage group
        keyed by the image's content digest, so linting and rendering
        in the same session analyze once.
        """
        from repro.check.flow import analyze_flow
        from repro.errors import ReproError
        from repro.pipeline.cache import digest_executable

        if self.exe is None:
            raise ReproError("flow analysis needs a VM executable image")
        key = digest_executable(self.exe)
        cached = self.cache.get("flow", key)
        if cached is not None:
            return cached
        flow = analyze_flow(self.exe)
        self.cache.put("flow", key, flow)
        return flow

    # -- analyzing -------------------------------------------------------

    def analyze(
        self,
        data: ProfileData,
        options: AnalysisOptions | None = None,
        *,
        trace: PipelineTrace | None = None,
    ):
        """Run the staged pipeline with the session-shared cache."""
        return analyze(
            data, self.symbols, options, trace=trace, cache=self.cache
        )

"""The merge driver: thousands of gmon files, bounded memory.

:func:`tree_reduce` streams the input paths, in input order, through one
:class:`~repro.fleet.ProfileAccumulator` — one bucket array plus one arc
table, whatever the fleet size — so the resulting ``gmon.sum`` is
byte-identical to the sequential ``merge_profiles([read_gmon(p) ...])``.

Before any bucket data is parsed, a header precheck
(:mod:`repro.fleet.headers`) peeks every file's fixed-size prefix and
either fails fast with a structured :class:`~repro.errors.MergeError`
naming the first incompatible path, or — with
``on_incompatible="skip"`` — drops mismatches with a warning on the
merged result.

Salvage mode (``salvage=True``) recovers corrupt inputs instead of
failing: each file is parsed strictly first, and only a file the strict
parser rejects, or one declaring ``runs == 0``, goes through the
salvaging parser.  Corrupt files contribute their recovered prefix and
their degradation warnings propagate into the merged
``ProfileData.warnings``.
"""

from __future__ import annotations

import glob
import os
from pathlib import Path
from typing import Sequence

from repro.core import kernels
from repro.core.profiledata import ProfileData
from repro.errors import GmonFormatError, MergeError
from repro.gmon.format import peek_gmon_header, salvage_gmon_bytes

from repro.fleet.accumulator import ProfileAccumulator
from repro.fleet.headers import HeaderKey


def _dedup_by_inode(matches: list[str]) -> list[str]:
    """Collapse paths that name the same physical file, deterministically.

    Recursive globs can reach one file through many paths when a
    symlink cycle is present (``a/loop -> ..`` makes ``a/loop/a/f``,
    ``a/loop/a/loop/a/f``, ... all resolve to ``a/f`` until the kernel's
    ELOOP limit); merging the same samples dozens of times would be
    silently wrong.  Paths are visited in sorted order and the first
    name for each ``(st_dev, st_ino)`` wins, so the result is a pure
    function of the directory contents, never of enumeration order.
    """
    seen: set[tuple[int, int]] = set()
    kept: list[str] = []
    for p in sorted(matches):
        try:
            st = os.stat(p)
            key = (st.st_dev, st.st_ino)
        except OSError:
            kept.append(p)  # surfaces as the usual error at read time
            continue
        if key in seen:
            continue
        seen.add(key)
        kept.append(p)
    return kept


def expand_inputs(specs: Sequence[str]) -> list[str]:
    """Expand files, glob patterns, and directories into a path list.

    * a path to a regular file is kept as-is (missing files surface as
      the usual ``OSError`` at read time, keeping error messages
      stable);
    * a directory contributes every non-hidden regular file directly
      inside it, sorted by name;
    * a glob pattern (``*``, ``?``, ``[``, including ``**``)
      contributes its matches sorted by name; a pattern matching
      nothing is an error — a typo should not silently merge fewer
      runs.  Recursive (``**``) matches that reach the same physical
      file through several paths — a symlink cycle — are merged once,
      under the lexicographically first name.

    The expansion preserves the order of ``specs``; within one
    directory or glob the order is lexicographic (sorted here, not
    taken from filesystem enumeration), so the same fleet always merges
    in the same order (the determinism contract depends on it).
    """
    paths: list[str] = []
    for spec in specs:
        spec = os.fspath(spec)
        if os.path.isdir(spec):
            entries = sorted(
                e.path
                for e in os.scandir(spec)
                if e.is_file() and not e.name.startswith(".")
            )
            if not entries:
                raise MergeError("directory holds no profile files", path=spec)
            paths.extend(entries)
        elif glob.has_magic(spec):
            matches = [p for p in glob.glob(spec, recursive=True)
                       if os.path.isfile(p)]
            if "**" in spec:
                matches = _dedup_by_inode(matches)
            if not matches:
                raise MergeError("glob pattern matched no files", path=spec)
            paths.extend(sorted(matches))
        else:
            paths.append(spec)
    return paths


def precheck_headers(
    paths: Sequence[str],
    on_incompatible: str = "error",
    salvage: bool = False,
) -> tuple[list[str], list[str]]:
    """Peek every header; return (mergeable paths, skip warnings).

    With ``on_incompatible="error"`` the first layout mismatch raises a
    structured :class:`MergeError` (path + expected/actual HeaderKey);
    with ``"skip"`` mismatching files are dropped and described in the
    returned warnings.  In salvage mode files whose very header is
    unreadable are left in the list — the salvaging parser deals with
    them — instead of failing the precheck.
    """
    if on_incompatible not in ("error", "skip"):
        raise ValueError(f"unknown on_incompatible {on_incompatible!r}")
    expected: HeaderKey | None = None
    keep: list[str] = []
    warnings: list[str] = []
    for path in paths:
        try:
            key = HeaderKey.of(peek_gmon_header(path))
        except GmonFormatError:
            if salvage:
                # the salvaging reader will recover what it can
                keep.append(os.fspath(path))
                continue
            raise
        if expected is None:
            expected = key
        elif key != expected:
            if on_incompatible == "error":
                raise MergeError(
                    f"histogram layout {key.describe()} is incompatible "
                    f"with the fleet layout {expected.describe()}",
                    path=os.fspath(path),
                    expected=expected,
                    actual=key,
                )
            warnings.append(
                f"{os.fspath(path)}: skipped (layout {key.digest()} != "
                f"fleet layout {expected.digest()})"
            )
            continue
        keep.append(os.fspath(path))
    return keep, warnings


def _fold_salvaging(acc: ProfileAccumulator, path: str) -> None:
    """Fold one input in salvage mode: strict first, salvage on failure.

    A file that parses strictly and declares ``runs != 0`` is exactly a
    file the salvaging reader reports clean, with equal data and no
    warnings (``python -m tests.corrupt_corpus --verify`` asserts this
    on every mutant), so it takes the fast wire path.  Everything else
    goes through :func:`salvage_gmon_bytes`: corrupt files contribute
    their recovered prefix, and zero-runs files keep the salvaging
    reader's path-labelled warning.
    """
    with open(path, "rb") as f:
        blob = f.read()
    try:
        raw = acc.parse(blob)
    except GmonFormatError:
        raw = None
    if raw is not None and raw.runs != 0:
        acc.add_raw(raw, source=path)
        return
    data, _report = salvage_gmon_bytes(blob, source=path)
    acc.add_profile(data, source=path)


def tree_reduce(
    paths: Sequence[str],
    jobs: int = 1,
    salvage: bool = False,
    on_incompatible: str = "error",
    stats_out: dict | None = None,
) -> ProfileData:
    """Merge many gmon files into one ProfileData, in one streaming fold.

    Arguments:
        paths: gmon files, in merge order (use :func:`expand_inputs`
            to turn globs/directories into such a list).
        jobs: accepted only as 1, for callers that still pass it; any
            other value raises ``ValueError``.
        salvage: recover corrupt inputs instead of failing; they
            contribute their recovered prefix plus warnings.
        on_incompatible: ``"error"`` (default) or ``"skip"``, applied
            by the header precheck before any bucket data is read.
        stats_out: optional dict to fill with merge telemetry — the
            kernel backend name (``"numpy"`` or ``"python"``, from
            :func:`repro.core.kernels.default_backend_name`) plus the
            parse vs fold wall-time split (``repro-merge --stats``
            surfaces it).

    Returns data equal to ``merge_profiles([read_gmon(p) for p in
    paths])`` — byte-identical after :func:`~repro.gmon.write_gmon`.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    paths = [os.fspath(p) for p in paths]
    if not paths:
        raise MergeError("cannot merge zero profiles")
    paths, skip_warnings = precheck_headers(
        paths, on_incompatible=on_incompatible, salvage=salvage,
    )
    if not paths:
        raise MergeError(
            "no mergeable profiles left after the header precheck"
        )
    acc = ProfileAccumulator(timed=stats_out is not None)
    for path in paths:
        if salvage:
            _fold_salvaging(acc, path)
        else:
            acc.add(path)
    data = acc.result()
    if stats_out is not None:
        stats_out["kernel_backend"] = kernels.default_backend_name()
        stats_out.update(acc.timings)
    data.warnings.extend(skip_warnings)
    return data


def write_sum(data: ProfileData, path) -> Path:
    """Write the merged data as ``gmon.sum`` (atomic, like any gmon)."""
    from repro.gmon.format import write_gmon

    write_gmon(data, path)
    return Path(os.fspath(path))

"""Fleet-merge robustness: honest errors and lying filesystems.

* a real parse error in the middle of a fleet must surface, never be
  swallowed by the merge driver;
* ``expand_inputs`` must survive symlink cycles under ``**`` globs
  (one physical file merges once, whatever path shapes the glob
  reaches it through) and must order matches deterministically.
"""

from __future__ import annotations

import os

import pytest

from repro.fleet import expand_inputs, tree_reduce
from repro.gmon import write_gmon

from tests.helpers import make_symbols, profile_data

SYMS = make_symbols("main", "work")


def build_fleet(tmp_path, n):
    """``n`` distinct single-run profiles on disk."""
    paths = []
    for i in range(n):
        data = profile_data(SYMS, [("main", "work", i + 1)], {"main": i % 3})
        path = tmp_path / f"gmon.{i:03d}"
        write_gmon(data, path)
        paths.append(str(path))
    return paths


class TestWorkerFailure:
    def test_real_parse_errors_still_propagate(self, tmp_path):
        """A corrupt file mid-fleet fails the strict merge."""
        paths = build_fleet(tmp_path, 16)
        with open(paths[10], "wb") as f:
            f.write(b"gmon\x01\x00garbage")
        from repro.errors import GmonFormatError, MergeError

        with pytest.raises((GmonFormatError, MergeError)):
            tree_reduce(paths)


class TestExpandInputs:
    def test_symlink_cycle_merges_each_file_once(self, tmp_path):
        fleet = tmp_path / "fleet"
        sub = fleet / "a"
        sub.mkdir(parents=True)
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        write_gmon(data, sub / "gmon.0")
        write_gmon(data, fleet / "gmon.1")
        try:
            os.symlink("..", sub / "loop")
        except OSError:
            pytest.skip("filesystem refuses symlinks")
        paths = expand_inputs([str(fleet / "**" / "gmon.*")])
        # the cycle makes the glob see each file through many path
        # shapes; expansion must keep exactly the two physical files
        assert len(paths) == 2
        assert [os.path.basename(p) for p in paths] == ["gmon.0", "gmon.1"]
        merged = tree_reduce(paths)
        assert merged.runs == 2  # not 40+ phantom copies

    def test_recursive_glob_deterministic_order(self, tmp_path):
        names = ["b/gmon.2", "a/gmon.9", "a/gmon.10", "c/gmon.1"]
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        for name in names:
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            write_gmon(data, path)
        pattern = str(tmp_path / "**" / "gmon.*")
        first = expand_inputs([pattern])
        assert first == expand_inputs([pattern])  # stable across calls
        assert first == sorted(first)  # lexicographic, not enumeration order

    def test_plain_glob_still_sorted(self, tmp_path):
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        for i in (3, 1, 2):
            write_gmon(data, tmp_path / f"gmon.{i}")
        paths = expand_inputs([str(tmp_path / "gmon.*")])
        assert [os.path.basename(p) for p in paths] == [
            "gmon.1", "gmon.2", "gmon.3",
        ]

    def test_duplicate_hardlinks_under_recursive_glob(self, tmp_path):
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        target = tmp_path / "sub" / "gmon.a"
        target.parent.mkdir()
        write_gmon(data, target)
        try:
            os.link(target, tmp_path / "sub" / "gmon.b")
        except OSError:
            pytest.skip("filesystem refuses hard links")
        paths = expand_inputs([str(tmp_path / "**" / "gmon.*")])
        # same inode, two names: the lexicographically first name wins
        assert [os.path.basename(p) for p in paths] == ["gmon.a"]

"""Concurrent readers: shared salvage under racing rewrites.

Two threads salvaging the *same* damaged gmon file concurrently must
both succeed with identical recoveries — the salvaging reader holds no
hidden mutable state — and readers racing an atomic rewriter must each
see one complete version.
"""

from __future__ import annotations

import threading

from repro.gmon import dumps_gmon, salvage_gmon_bytes
from repro.resilience.atomic import atomic_write_bytes

from tests.helpers import make_symbols, profile_data

SYMS = make_symbols("main", "work", "leaf")


def run_threads(n, fn):
    """Run ``fn(i)`` in ``n`` threads through a start barrier; collect
    results and re-raise the first failure."""
    barrier = threading.Barrier(n)
    results: list[object] = [None] * n
    errors: list[BaseException] = []

    def runner(i):
        barrier.wait()
        try:
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


class TestConcurrentSalvage:
    def test_two_readers_same_damaged_file(self, tmp_path):
        data = profile_data(
            SYMS, [("main", "work", 3), ("work", "leaf", 1)], {"main": 5}
        )
        blob = dumps_gmon(data)
        damaged = tmp_path / "gmon.damaged"
        damaged.write_bytes(blob[:-15])  # torn arc table

        def salvage(_i):
            with open(damaged, "rb") as f:
                recovered, report = salvage_gmon_bytes(
                    f.read(), source=str(damaged)
                )
            assert not report.clean
            return dumps_gmon(recovered), tuple(report.notes)

        results = run_threads(8, salvage)
        # every thread recovered the identical profile and report
        assert len(set(results)) == 1

    def test_salvage_while_file_rewritten(self, tmp_path):
        """Readers racing a rewriter each see some complete version."""
        blob_a = dumps_gmon(
            profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        )
        blob_b = dumps_gmon(
            profile_data(SYMS, [("main", "leaf", 9)], {"leaf": 4})
        )
        path = tmp_path / "gmon.live"
        path.write_bytes(blob_a)
        stop = threading.Event()

        def rewriter():
            flip = False
            while not stop.is_set():
                atomic_write_bytes(path, blob_b if flip else blob_a)
                flip = not flip

        w = threading.Thread(target=rewriter)
        w.start()
        try:
            def read(_i):
                out = []
                for _ in range(50):
                    with open(path, "rb") as f:
                        recovered, report = salvage_gmon_bytes(f.read())
                    # the rewrite is atomic, so every read is complete
                    assert report.clean
                    out.append(dumps_gmon(recovered))
                return out

            results = run_threads(4, read)
        finally:
            stop.set()
            w.join()
        seen = {b for chunk in results for b in chunk}
        assert seen <= {blob_a, blob_b}

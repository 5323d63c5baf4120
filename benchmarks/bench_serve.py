"""T-SERVE runner: ingest throughput and crash-recovery time.

Measures the :mod:`repro.serve` daemon end to end, through the real
HTTP stack:

* **ingest** — boot a :class:`ReproServer` on a loopback port, upload a
  synthetic fleet of gmon files from several concurrent agent threads
  (one tenant per thread, so per-tenant ordering is exercised alongside
  cross-tenant sharding), and record uploads/second — once with the
  durable fsync-per-append journal, once with ``fsync`` off to show
  what the durability guarantee costs;
* **recovery** — abandon the durable server *without* a graceful stop
  (its checkpoint is stale, its journal long — the on-disk shape a
  ``kill -9`` leaves), then time a cold :class:`TenantStore` recovery
  of every tenant and count the journal records replayed;
* **identity gate** — the recovered merged profile of every tenant must
  be byte-identical to an offline :func:`tree_reduce` of exactly the
  files that tenant uploaded.  A mismatch makes the suite exit 2 in CI.

Usage::

    python -m benchmarks.emit_bench --suite serve [--quick]
"""

from __future__ import annotations

import asyncio
import os
import platform
import threading
import time
from pathlib import Path

from repro.fleet import tree_reduce
from repro.gmon import dumps_gmon
from repro.serve import AgentClient, ReproServer, RetryPolicy, ServeConfig
from repro.serve.state import TenantStore

FULL = {"files": 400, "tenants": 4, "nbuckets": 2000, "narcs": 400,
        "arc_sites": 600}
QUICK = {"files": 60, "tenants": 3, "nbuckets": 200, "narcs": 40,
         "arc_sites": 60}


class ServerThread:
    """A ReproServer running in its own thread's event loop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: ReproServer | None = None
        self.addr: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._stop = None
        self._graceful = True
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> tuple[str, int]:
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("server thread failed to start")
        return self.addr

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = ReproServer(self.config)
        self.addr = await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started.set()
        await self._stop.wait()
        if self._graceful:
            await self.server.stop()
        else:
            # the kill -9 shape: sockets die, nothing checkpoints, the
            # journal on disk is all recovery gets
            self.server._server.close()
            for store in self.server.tenants.values():
                store.close()

    def stop(self, graceful: bool = True) -> None:
        self._graceful = graceful
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def upload_fleet(host: str, port: int, assignments) -> float:
    """Upload every (tenant, path) slice from its own thread; seconds."""
    errors: list[BaseException] = []

    def agent(tenant: str, paths: list[str]) -> None:
        client = AgentClient(
            host, port, timeout=30,
            policy=RetryPolicy(retries=8, base_delay=0.05, seed=1),
        )
        try:
            for path in paths:
                client.upload_file(tenant, path)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=agent, args=(tenant, paths))
        for tenant, paths in assignments.items()
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return elapsed


def ingest_run(root: Path, assignments, fsync: bool) -> tuple[float, ServeConfig]:
    config = ServeConfig(
        root=str(root), port=0, fsync=fsync,
        checkpoint_every=10_000,  # keep the journal long for recovery
    )
    server = ServerThread(config)
    host, port = server.start()
    try:
        elapsed = upload_fleet(host, port, assignments)
    finally:
        server.stop(graceful=False)
    return elapsed, config


def run_serve(quick: bool) -> tuple[dict, bool]:
    from benchmarks.emit_bench import build_corpus
    import tempfile

    cfg = QUICK if quick else FULL
    byte_identical = True
    with tempfile.TemporaryDirectory(prefix="bench_serve_") as tmp:
        corpus_dir = Path(tmp) / "corpus"
        corpus_dir.mkdir()
        paths = build_corpus(
            corpus_dir, cfg["files"], cfg["nbuckets"], cfg["narcs"],
            cfg["arc_sites"],
        )
        assignments = {
            f"tenant-{i}": paths[i :: cfg["tenants"]]
            for i in range(cfg["tenants"])
        }

        durable_s, durable_cfg = ingest_run(
            Path(tmp) / "durable", assignments, fsync=True
        )
        fast_s, _ = ingest_run(Path(tmp) / "fast", assignments, fsync=False)

        # recovery: cold-open every tenant of the abandoned durable root
        from repro.serve import Quarantine

        quarantine = Quarantine(durable_cfg.quarantine_root())
        t0 = time.perf_counter()
        stores = {
            tenant: TenantStore.open(tenant, durable_cfg, quarantine)
            for tenant in assignments
        }
        recovery_s = time.perf_counter() - t0
        replayed = sum(s.since_checkpoint for s in stores.values())

        for tenant, slice_paths in assignments.items():
            offline = dumps_gmon(tree_reduce(slice_paths))
            recovered = stores[tenant].merged()
            if recovered != offline:
                byte_identical = False
            stores[tenant].close()

        n = cfg["files"]
        row = {
            "files": n,
            "tenants": cfg["tenants"],
            "durable_seconds": round(durable_s, 6),
            "durable_uploads_per_sec": round(n / durable_s, 1),
            "nofsync_seconds": round(fast_s, 6),
            "nofsync_uploads_per_sec": round(n / fast_s, 1),
            "fsync_cost_factor": round(durable_s / fast_s, 2),
            "recovery_seconds": round(recovery_s, 6),
            "records_replayed": replayed,
            "records_replayed_per_sec": round(replayed / recovery_s, 1)
            if recovery_s else None,
            "byte_identical": byte_identical,
        }
        print(
            f"  {n:>5} uploads: durable "
            f"{row['durable_uploads_per_sec']:>8} up/s"
            f"  no-fsync {row['nofsync_uploads_per_sec']:>8} up/s"
            f"  recovery {row['recovery_seconds']:.3f}s"
            f" ({replayed} records)  identical={byte_identical}"
        )
    report = {
        "benchmark": "T-SERVE ingest throughput and crash recovery",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "corpus": {
            "nbuckets": cfg["nbuckets"],
            "narcs": cfg["narcs"],
            "arc_sites": cfg["arc_sites"],
            "seed": 1234,
        },
        "rows": [row],
    }
    return report, byte_identical

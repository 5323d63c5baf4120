"""T-SERVE runner: ingest throughput and crash-recovery time.

Measures the :mod:`repro.serve` daemon end to end, through the real
HTTP stack:

* **ingest** — boot a :class:`ReproServer` on a loopback port, upload a
  synthetic fleet of gmon files from several concurrent agent threads
  (one tenant per thread, so per-tenant ordering is exercised alongside
  cross-tenant sharding), and record uploads/second — with the durable
  fsync-per-append journal and with ``fsync`` off, in interleaved
  rounds, to show what the durability guarantee costs.  Each round
  boots both servers untimed on fresh roots, and each timed upload
  ends by abandoning its server *without* a graceful stop (under a
  millisecond): its checkpoint is stale, its journal long — the
  on-disk shape a ``kill -9`` leaves;
* **recovery** — time a cold :class:`TenantStore` recovery of every
  tenant of the last abandoned durable root and count the journal
  records replayed.  Recovering a clean journal writes nothing, so
  every round replays the same root;
* **identity gate** — the recovered merged profile of every tenant must
  be byte-identical to an offline :func:`tree_reduce` of exactly the
  files that tenant uploaded.  A mismatch makes the suite exit 2 in CI.

Usage::

    python -m benchmarks.emit_bench --suite serve [--quick]
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
from pathlib import Path

from repro.fleet import tree_reduce
from repro.gmon import dumps_gmon
from repro.serve import (
    AgentClient, Quarantine, ReproServer, RetryPolicy, ServeConfig,
)
from repro.serve.state import TenantStore

from benchmarks.bench_fleet import build_corpus
from benchmarks.timing import header, ratio, rounds, spread, summary

FULL = {"files": 400, "tenants": 4, "nbuckets": 2000, "narcs": 400,
        "arc_sites": 600, "repeats": 9}
QUICK = {"files": 60, "tenants": 3, "nbuckets": 200, "narcs": 40,
         "arc_sites": 60, "repeats": 3}


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


def upload_fleet(host: str, port: int, assignments) -> None:
    """Upload every (tenant, path) slice from its own thread."""
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
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_serve(quick: bool) -> tuple[dict, bool]:
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

        def boot() -> dict:
            """Untimed: a durable and a no-fsync server on fresh roots."""
            servers = {}
            for fsync in (True, False):
                servers[fsync] = ServerThread(ServeConfig(
                    root=tempfile.mkdtemp(dir=tmp), port=0, fsync=fsync,
                    checkpoint_every=10_000,  # keep the journal long
                ))
                servers[fsync].start()
            return servers

        def ingest(fsync: bool):
            def upload(servers: dict) -> ServeConfig:
                server = servers[fsync]
                try:
                    upload_fleet(*server.addr, assignments)
                finally:
                    server.stop(graceful=False)
                return server.config
            return upload

        seconds, configs = rounds(
            {"durable": ingest(True), "nofsync": ingest(False)},
            cfg["repeats"],
            setup=boot,
        )

        # recovery: cold-open every tenant of the abandoned durable root
        durable = configs["durable"]
        quarantine = Quarantine(durable.quarantine_root())
        recovery, recovered = rounds(
            {
                "recovery": lambda: {
                    tenant: TenantStore.open(tenant, durable, quarantine)
                    for tenant in assignments
                }
            },
            cfg["repeats"],
        )
        stores = recovered["recovery"]
        replayed = sum(s.since_checkpoint for s in stores.values())

        for tenant, slice_paths in assignments.items():
            offline = dumps_gmon(tree_reduce(slice_paths))
            if stores[tenant].merged() != offline:
                byte_identical = False
            stores[tenant].close()

        n = cfg["files"]
        durable_s = summary(seconds["durable"])
        nofsync_s = summary(seconds["nofsync"])
        recovery_s = summary(recovery["recovery"])
        row = {
            "files": n,
            "tenants": cfg["tenants"],
            "durable_seconds": durable_s,
            "durable_uploads_per_sec": round(n / durable_s["median"], 1),
            "nofsync_seconds": nofsync_s,
            "nofsync_uploads_per_sec": round(n / nofsync_s["median"], 1),
            "fsync_cost_factor": ratio(seconds, "durable", "nofsync"),
            "recovery_seconds": recovery_s,
            "records_replayed": replayed,
            "records_replayed_per_sec": round(
                replayed / recovery_s["median"], 1
            ),
            "byte_identical": byte_identical,
        }
        print(
            f"  {n:>5} uploads: durable "
            f"{row['durable_uploads_per_sec']:>8} up/s"
            f"  no-fsync {row['nofsync_uploads_per_sec']:>8} up/s"
            f"  (fsync {spread(row['fsync_cost_factor'])})"
            f"  recovery {recovery_s['median']:.3f}s"
            f" ({replayed} records)  identical={byte_identical}"
        )
    return {
        **header("T-SERVE ingest throughput and crash recovery", quick,
                 cfg["repeats"]),
        "corpus": {
            "nbuckets": cfg["nbuckets"],
            "narcs": cfg["narcs"],
            "arc_sites": cfg["arc_sites"],
            "seed": 1234,
        },
        "rows": [row],
    }, byte_identical

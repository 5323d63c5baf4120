"""repro-serve: the fault-tolerant continuous-profiling ingest daemon.

The service shape of the paper's post-processor: thousands of agents
``POST`` their ``gmon.out`` files here; the server validates each one
at the front door, journals it durably, folds it into per-tenant merged
state, and serves the merged profile — raw, flat, or call-graph — back
out.  Robustness is the design center:

* **Front door** — before any body is buffered, the request must carry
  a plausible ``Content-Length`` (over-limit ⇒ 413 immediately) and its
  first bytes must peek as a gmon header
  (:func:`repro.gmon.peek_gmon_header_bytes`): wrong magic ⇒ 400,
  a layout incompatible with the tenant's fleet ⇒ 409 carrying both
  digests, exactly like the batch merger's structured ``MergeError``.
* **Backpressure** — accepted bodies enter a bounded per-tenant
  pipeline; a tenant over its ``queue_depth`` (or the server over its
  global in-flight byte budget) gets ``429`` + ``Retry-After`` and
  nothing is buffered.  Overload slows clients down; it never grows
  server memory without bound.
* **Sharded workers** — tenants hash onto ``shards`` worker tasks, so
  one tenant's uploads are strictly ordered (the determinism the
  byte-identity gate needs) while distinct tenants proceed in
  parallel.
* **Salvage, then quarantine** — a corrupt body is first offered to
  the salvaging parser; what cannot be recovered (or would poison the
  merged layout) is quarantined to disk with a structured reason and
  answered with ``422``.  Nothing is dropped silently; nothing corrupt
  reaches merged state.
* **Durability** — an upload is acknowledged only after its journal
  frame is fsynced (:mod:`repro.serve.state`); ``kill -9`` at any byte
  boundary and a restart recovers exactly the acknowledged uploads.
* **A connection can die at any await** — client disconnects
  mid-body, mid-response, or mid-keep-alive are counted, cleaned up,
  and never take a worker or another connection with them.
"""

from __future__ import annotations

import asyncio
import json
import re
import zlib
from dataclasses import dataclass

from repro.errors import GmonFormatError, ReproError
from repro.fleet.headers import HeaderKey
from repro.gmon.format import (
    MAGIC,
    PEEK_PREFIX_LEN,
    peek_gmon_header_bytes,
    peek_needed_len,
)

from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    render_response,
)
from repro.serve.quarantine import Quarantine
from repro.serve.state import Outcome, ServeConfig, TenantStore

#: Tenant names are path segments and directory names; keep them tame.
TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass
class ServerStats:
    connections: int = 0
    requests: int = 0
    disconnects: int = 0
    rejected_front_door: int = 0
    throttled: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "disconnects": self.disconnects,
            "rejected_front_door": self.rejected_front_door,
            "throttled": self.throttled,
            "errors": self.errors,
        }


@dataclass
class _WorkItem:
    tenant: TenantStore
    blob: bytes
    key: str
    future: asyncio.Future


class ReproServer:
    """The asyncio ingest daemon.  ``await start()``, then ``serve_forever()``."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.quarantine = Quarantine(config.quarantine_root())
        self.tenants: dict[str, TenantStore] = {}
        self.stats = ServerStats()
        self.session = None  # lazy ProfileSession for flat/graph queries
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._server: asyncio.base_events.Server | None = None
        self._inflight_bytes = 0
        self._pending_keys: dict[tuple[str, str], asyncio.Future] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Recover persisted tenants, spawn workers, bind the socket."""
        import os

        os.makedirs(self.config.tenants_root(), exist_ok=True)
        for name in sorted(os.listdir(self.config.tenants_root())):
            if TENANT_RE.match(name):
                self.tenants[name] = TenantStore.open(
                    name, self.config, self.quarantine
                )
        self._queues = [asyncio.Queue() for _ in range(self.config.shards)]
        self._workers = [
            asyncio.create_task(self._shard_worker(q), name=f"shard-{i}")
            for i, q in enumerate(self._queues)
        ]
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: drain workers, checkpoint every tenant."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for q in self._queues:
            await q.join()
        for w in self._workers:
            w.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for store in self.tenants.values():
            try:
                store.checkpoint()
            except ReproError:
                pass  # an empty tenant has nothing to checkpoint
            store.close()

    # -- tenant plumbing ---------------------------------------------------

    def tenant(self, name: str) -> TenantStore:
        store = self.tenants.get(name)
        if store is None:
            store = TenantStore.open(name, self.config, self.quarantine)
            self.tenants[name] = store
        return store

    def _shard_of(self, name: str) -> asyncio.Queue:
        return self._queues[zlib.crc32(name.encode()) % len(self._queues)]

    async def _shard_worker(self, queue: asyncio.Queue) -> None:
        """Fold queued uploads, one at a time, forever.

        The worker must survive anything a single item does to it: an
        unexpected exception becomes that item's 500, never the
        worker's death.
        """
        while True:
            item: _WorkItem = await queue.get()
            try:
                outcome = item.tenant.accept(item.blob, item.key)
                if not item.future.done():
                    item.future.set_result(outcome)
            except asyncio.CancelledError:
                if not item.future.done():
                    item.future.set_exception(
                        HttpError(503, "server shutting down")
                    )
                raise
            except BaseException as exc:  # noqa: BLE001 — the worker must live
                self.stats.errors += 1
                if not item.future.done():
                    item.future.set_exception(
                        HttpError(500, f"ingest failed: {exc}")
                    )
            finally:
                self._inflight_bytes -= len(item.blob)
                item.tenant.inflight -= 1
                queue.task_done()

    # -- connection handling ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), self.config.read_timeout
                    )
                except asyncio.TimeoutError:
                    break
                except HttpError as exc:
                    await self._respond_error(writer, exc, keep_alive=False)
                    break
                if request is None:
                    break
                self.stats.requests += 1
                try:
                    status, body, ctype, extra = await self._dispatch(
                        request, reader
                    )
                except HttpError as exc:
                    if exc.status in (400, 409, 413, 501):
                        self.stats.rejected_front_door += 1
                    elif exc.status == 429:
                        self.stats.throttled += 1
                    # A POST rejected mid-body leaves unread bytes on the
                    # wire; the connection cannot be reused for framing.
                    reuse = request.method == "GET" and exc.status not in (
                        400, 411, 413, 501,
                    )
                    await self._respond_error(
                        writer, exc, keep_alive=reuse and request.keep_alive
                    )
                    if not reuse:
                        break
                    continue
                except (asyncio.IncompleteReadError, ConnectionError):
                    self.stats.disconnects += 1
                    break
                except Exception as exc:  # noqa: BLE001 — connection must not crash the loop
                    self.stats.errors += 1
                    await self._respond_error(
                        writer, HttpError(500, f"internal error: {exc}"),
                        keep_alive=False,
                    )
                    break
                writer.write(
                    render_response(
                        status, body, content_type=ctype, headers=extra,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            self.stats.disconnects += 1
        except asyncio.CancelledError:
            pass  # server torn down mid-connection: close quietly below
        except Exception:  # noqa: BLE001 — never let a connection kill the server
            self.stats.errors += 1
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _respond_error(
        self, writer: asyncio.StreamWriter, exc: HttpError, keep_alive: bool
    ) -> None:
        body = json.dumps(
            {"error": exc.message, "status": exc.status}, sort_keys=True
        ).encode() + b"\n"
        try:
            writer.write(
                render_response(
                    exc.status, body, headers=exc.headers,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
        except (ConnectionError, OSError):
            self.stats.disconnects += 1

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, request: Request, reader: asyncio.StreamReader
    ) -> tuple[int, bytes, str, dict]:
        path = request.path
        if request.method == "POST":
            m = re.fullmatch(r"/v1/profiles/([^/]+)", path)
            if m:
                return await self._upload(request, reader, m.group(1))
            raise HttpError(404, f"no such endpoint {path!r}")
        if request.method != "GET":
            raise HttpError(405, f"method {request.method} not supported")
        # GET requests carry no body we would need to drain.
        if path == "/healthz":
            return 200, b'{"status": "ok"}\n', "application/json", {}
        if path == "/v1/stats":
            return self._stats_response()
        if path == "/v1/tenants":
            body = json.dumps(sorted(self.tenants), sort_keys=True).encode()
            return 200, body + b"\n", "application/json", {}
        m = re.fullmatch(r"/v1/quarantine/([^/]+)", path)
        if m:
            tenant = self._valid_tenant(m.group(1))
            body = json.dumps(
                self.quarantine.entries(tenant), sort_keys=True, indent=2
            ).encode()
            return 200, body + b"\n", "application/json", {}
        m = re.fullmatch(r"/v1/profiles/([^/]+)/(sum|flat|graph)", path)
        if m:
            return self._query(request, m.group(1), m.group(2))
        raise HttpError(404, f"no such endpoint {path!r}")

    def _valid_tenant(self, name: str) -> str:
        if not TENANT_RE.match(name):
            raise HttpError(400, f"invalid tenant name {name!r}")
        return name

    # -- the upload path ---------------------------------------------------

    async def _upload(
        self, request: Request, reader: asyncio.StreamReader, tenant_name: str
    ) -> tuple[int, bytes, str, dict]:
        tenant_name = self._valid_tenant(tenant_name)
        length = request.content_length(self.config.max_body)
        if length == 0:
            raise HttpError(400, "empty upload")
        store = self.tenant(tenant_name)
        key = request.headers.get("x-idempotency-key", "")
        if len(key) > 255:
            raise HttpError(400, "idempotency key longer than 255 bytes")

        # Front door: peek the header out of the first bytes before
        # buffering the rest of the body.
        head = await reader.readexactly(min(length, PEEK_PREFIX_LEN))
        consumed = len(head)
        if length >= PEEK_PREFIX_LEN:
            try:
                needed = peek_needed_len(head)
            except GmonFormatError as exc:
                # bad magic: this can never become a profile; refuse it
                # without buffering the declared body
                raise HttpError(400, f"not a profile data file: {exc}")
            more = min(length, needed) - consumed
            head += await reader.readexactly(more)
            consumed += more
            if length >= needed:
                try:
                    header = peek_gmon_header_bytes(head)
                except GmonFormatError:
                    # the magic was right but the header is nonsense
                    # (corruption in flight); salvage-or-quarantine
                    # territory for the worker, not a 500
                    header = None
                if header is not None:
                    upload_key = HeaderKey.of(header)
                    if (store.acc.key is not None
                            and upload_key != store.acc.key):
                        raise HttpError(
                            409,
                            f"histogram layout {upload_key.describe()} is "
                            f"incompatible with the tenant layout "
                            f"{store.acc.key.describe()}",
                        )
            # a body shorter than its own header is salvage territory:
            # let the worker decide (salvage or quarantine)
        elif not MAGIC.startswith(head[: len(MAGIC)]):
            raise HttpError(400, "not a profile data file: bad magic")

        # Dedup before buffering the body when we can (a retried upload
        # races its own original here; both answers must agree).
        if key and key in store.keys:
            await _drain(reader, length - consumed)
            store.stats.duplicates += 1
            return self._outcome_response(
                Outcome("duplicate", seq=store.keys[key])
            )
        pending_token = (tenant_name, key)
        if key and pending_token in self._pending_keys:
            await _drain(reader, length - consumed)
            try:
                outcome = await asyncio.shield(
                    self._pending_keys[pending_token]
                )
            except (KeyError, HttpError, asyncio.CancelledError):
                raise HttpError(503, "original upload still in flight")
            store.stats.duplicates += 1
            return self._outcome_response(
                Outcome("duplicate", seq=outcome.seq)
            )

        # Backpressure: refuse before buffering, not after.
        if store.inflight >= self.config.queue_depth:
            raise HttpError(
                429,
                f"tenant {tenant_name} has {store.inflight} uploads queued",
                headers={"Retry-After": "1"},
            )
        if self._inflight_bytes + length > self.config.max_inflight_bytes:
            raise HttpError(
                429,
                "server over its in-flight byte budget",
                headers={"Retry-After": "2"},
            )

        body = head + await reader.readexactly(length - consumed)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        item = _WorkItem(store, body, key, future)
        store.inflight += 1
        self._inflight_bytes += len(body)
        if key:
            self._pending_keys[pending_token] = future
        try:
            await self._shard_of(tenant_name).put(item)
            outcome = await asyncio.shield(future)
        finally:
            if key:
                self._pending_keys.pop(pending_token, None)
        return self._outcome_response(outcome)

    def _outcome_response(self, outcome: Outcome) -> tuple[int, bytes, str, dict]:
        payload = {"status": outcome.status, "seq": outcome.seq}
        status = 200
        if outcome.status == "merged":
            payload["salvaged"] = outcome.salvaged
            if outcome.warnings:
                payload["warnings"] = list(outcome.warnings)
        elif outcome.status == "quarantined":
            status = 422
            payload = {
                "status": "quarantined",
                "reason": outcome.reason,
                "entry": outcome.entry,
            }
        body = json.dumps(payload, sort_keys=True).encode() + b"\n"
        return status, body, "application/json", {}

    # -- the query paths ---------------------------------------------------

    def _window_or_all(self, store: TenantStore, request: Request):
        window = request.query.get("window")
        if window is None:
            if store.acc.empty:
                raise HttpError(404, f"tenant {store.name} holds no profiles")
            return store.merged_data()
        try:
            seconds = float(window)
        except ValueError:
            raise HttpError(400, f"unparseable window {window!r}")
        if seconds <= 0:
            raise HttpError(400, "window must be positive seconds")
        data = store.window_data(seconds)
        if data is None:
            raise HttpError(
                404, f"no uploads within the last {seconds:g}s window"
            )
        return data

    def _query(
        self, request: Request, tenant_name: str, kind: str
    ) -> tuple[int, bytes, str, dict]:
        tenant_name = self._valid_tenant(tenant_name)
        store = self.tenants.get(tenant_name)
        if store is None:
            raise HttpError(404, f"unknown tenant {tenant_name!r}")
        data = self._window_or_all(store, request)
        if kind == "sum":
            from repro.gmon.format import dumps_gmon

            return 200, dumps_gmon(data), "application/octet-stream", {}
        session = self._profile_session()
        profile = session.analyze(data)
        if kind == "flat":
            from repro.report import format_flat_profile

            text = format_flat_profile(profile)
        else:
            from repro.report import format_graph_profile

            text = format_graph_profile(profile)
        if data.warnings:
            banner = "".join(
                f"warning: {w}\n" for w in data.warnings
            )
            text = banner + text
        return 200, text.encode("utf-8"), "text/plain; charset=utf-8", {}

    def _profile_session(self):
        if self.session is None:
            if self.config.image is None:
                raise HttpError(
                    409,
                    "flat/graph listings need a symbol image: start "
                    "repro-serve with --image",
                )
            from repro.pipeline import ProfileSession

            self.session = ProfileSession.from_image(self.config.image)
        return self.session

    def _stats_response(self) -> tuple[int, bytes, str, dict]:
        payload = {
            "server": self.stats.as_dict(),
            "inflight_bytes": self._inflight_bytes,
            "tenants": {
                name: store.stats_dict()
                for name, store in sorted(self.tenants.items())
            },
        }
        body = json.dumps(payload, sort_keys=True, indent=2).encode() + b"\n"
        return 200, body, "application/json", {}


async def _drain(reader: asyncio.StreamReader, n: int) -> None:
    """Consume and discard ``n`` remaining body bytes."""
    while n > 0:
        chunk = await reader.read(min(n, 64 * 1024))
        if not chunk:
            raise asyncio.IncompleteReadError(b"", n)
        n -= len(chunk)


async def run_server(config: ServeConfig, announce=None) -> None:
    """Start a server and run until cancelled (the CLI entry point)."""
    server = ReproServer(config)
    host, port = await server.start()
    if announce is not None:
        announce(host, port)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()

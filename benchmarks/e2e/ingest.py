"""The open-loop ``ingest`` workload: uploads beside queries on ``repro-serve``.

The server runs as its own ``repro-serve --image`` process with durable
(fsync-per-upload) journaling.  From this single process, one thread
(the caller's) uploads on a fixed schedule of ``RATE`` per second — an
open loop, so a stalled server makes later uploads wait and each upload
is timed from when it was *due*, not when it was sent — and one query
thread asks for the call-graph listing every ``QUERY_EVERY`` seconds.
That is two threads and two keep-alive connections, never more than
``nproc`` on the 2-vCPU hosts this was sized on.  The first
``WARMUP_S`` seconds of both are discarded.

The server's CPU time and peak RSS come from ``os.wait4`` when it exits.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.check.pipelinelint import pipeline_passes
from repro.gmon import parse_gmon

from benchmarks.e2e import oracles, workloads
from benchmarks.e2e.harness import python_env
from benchmarks.e2e.runners import (
    Context,
    analyze_render,
    base_profiles,
    setup_rounds,
)

RATE = 100  # uploads per second
QUERY_EVERY = 0.25  # seconds between call-graph queries
WARMUP_S = 1.0
TENANT = "t0"
START_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0


class Server:
    """One ``repro-serve`` process; always stop it with :meth:`stop`."""

    def __init__(self, root: str, image: str) -> None:
        os.makedirs(root)
        self.announce = os.path.join(root, "announce")
        self.log = open(os.path.join(root, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.serve_cli", "--root", root,
             "--port", "0", "--image", image, "--announce", self.announce],
            env=python_env(), stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.rusage = None

    def wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while not os.path.exists(self.announce):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro-serve did not start")
            time.sleep(0.005)
        with open(self.announce) as f:
            host, port = f.read().split()
        return host, int(port)

    def stop(self) -> None:
        """SIGTERM (graceful checkpoint), then reap it and keep its rusage."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + STOP_TIMEOUT
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            while pid == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == 0:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = usage
        self.log.close()


class Client:
    """One keep-alive HTTP connection; reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.conn = None

    def request(self, method: str, path: str, body: bytes | None = None):
        """Returns ``(status, body)``; ``(0, b"")`` when the request failed."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port,
                                                       timeout=30)
            self.conn.request(method, path, body=body)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_ingest(ctx: Context) -> None:
    program = workloads.fleet_program(ctx.seed, "ingest")
    ctx.inputs["ingest.rel"] = workloads.digest(program.source)
    servers: list[Server] = []

    def build(r, rep):
        exe, blobs, bases = base_profiles(r, program)
        image = os.path.join(ctx.work, f"ingest-{rep}.vmexe")
        exe.save(image)
        if servers:
            servers[-1].stop()
        servers.append(Server(os.path.join(ctx.work, f"serve-{rep}"), image))
        return exe.symbol_table(), blobs, bases, servers[-1].wait_ready()

    try:
        symbols, blobs, bases, (host, port) = setup_rounds(
            ctx, build, cold_start=False)
        _measure(ctx, symbols, blobs, bases, host, port)
    finally:
        for server in servers:
            server.stop()
    usage = servers[-1].rusage
    uploads = len(ctx.rec.of("op")) + len(ctx.rec.of("warmup"))
    ctx.extra["server_cpu_ms_per_upload"] = (
        (usage.ru_utime + usage.ru_stime) * 1e3 / uploads)
    ctx.extra["peak_rss_mb"] = usage.ru_maxrss / 1024
    ctx.check("repro-serve exited cleanly", servers[-1].proc.returncode == 0)


def _measure(ctx, symbols, blobs, bases, host, port) -> None:
    rec = ctx.rec
    stream = workloads.perturbations(ctx.seed, "ingest", bases)
    oracle = oracles.FoldOracle(bases)
    uploaded = hashlib.blake2b(digest_size=16)
    stop = threading.Event()
    t0 = time.perf_counter()
    measure_from = t0 + WARMUP_S

    def queries():
        client = Client(host, port)
        due = t0 + QUERY_EVERY
        try:
            for k in range(1_000_000):
                if stop.wait(max(due - time.perf_counter(), 0)):
                    return
                kind = "query" if due >= measure_from else "query-warmup"
                with rec.round(kind, k) as q:
                    q.due = due
                    with q.span("serve.query"):
                        status, body = client.request(
                            "GET", f"/v1/profiles/{TENANT}/graph")
                q.ok = status == 200
                due = max(due + QUERY_EVERY, time.perf_counter())
        finally:
            client.close()

    client = Client(host, port)
    querier = threading.Thread(target=queries, name="e2e-query")
    total = int(RATE * (WARMUP_S + ctx.seconds))
    p = next(stream)
    blob = workloads.apply(blobs[p.base], bases[p.base], p)
    try:
        for i in range(total):
            due = t0 + i / RATE
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            kind = "op" if due >= measure_from else "warmup"
            with rec.round(kind, i, traced=ctx.trace and i % 2 == 1) as r:
                r.due = due
                with r.span("serve.upload"):
                    status, body = client.request(
                        "POST", f"/v1/profiles/{TENANT}", blob)
            r.ok = status == 200 and json.loads(body)["status"] == "merged"
            uploaded.update(blob)
            if r.ok:
                oracle.add(p)
            if i == 0:
                querier.start()
            p = next(stream)
            blob = workloads.apply(blobs[p.base], bases[p.base], p)
    finally:
        stop.set()
        if querier.is_alive():
            querier.join(30)
    ctx.inputs["ingest.uploads"] = uploaded.hexdigest()
    ctx.extra["harness.gen_late_ms_max"] = max(
        (r.start - r.due) * 1e3 for r in rec.of("op"))

    status, body = client.request("GET", "/v1/stats")
    ctx.check("/v1/stats answers", status == 200)
    stats = json.loads(body) if status == 200 else {"server": {}, "tenants": {}}
    attempted = len(rec.of("op")) + len(rec.of("warmup"))
    with rec.round("check", 0, traced=ctx.trace) as r:
        r.count("serve.throttled", stats["server"].get("throttled", 0))
        r.count("serve.errors", stats["server"].get("errors", 0))
        ctx.extra["serve.merged_ratio"] = (
            stats["tenants"].get(TENANT, {}).get("accepted", 0) / attempted)
        status, merged = client.request("GET", f"/v1/profiles/{TENANT}/sum")
        ctx.check("/sum equals the oracle's fold of the uploads",
                  status == 200 and merged == oracle.expected())
        with r.span("gmon.read"):
            data = parse_gmon(merged)
        _, _, graph = analyze_render(r, data, symbols)
        status, served = client.request("GET", f"/v1/profiles/{TENANT}/graph")
        ctx.check("/graph equals the local call-graph listing",
                  status == 200 and served == graph.encode("utf-8"))
        ctx.check("GP501-GP505 clean", not pipeline_passes(symbols, data))
    client.close()
    ctx.query_ms = [q.latency * 1e3 for q in rec.of("query")]

"""Chaos gate for the ingest service: ``python -m tests.chaos_serve``.

Boots a real ``repro-serve`` subprocess and throws a hostile fleet at
it — healthy uploads, corrupt mutants (truncations and bit flips),
mid-upload socket hangups — then ``SIGKILL``s the server in the middle
of the stream, restarts it, retries everything unacknowledged with the
same idempotency keys, and finishes the run.

The gate asserts the full robustness contract end to end:

* the server process never crashes (exit by our signals only, no
  tracebacks on its stderr);
* nothing corrupt is admitted: every acknowledged upload was either
  strict-valid or deterministically salvageable, everything else got a
  422 and a quarantine entry;
* **byte-identity**: after kill -9 and restart, each tenant's merged
  profile equals an offline ``repro-merge`` of exactly the
  acknowledged uploads' canonical bytes, in sequence order.

Exit status: 0 all good, 1 infrastructure/crash failure, 2 the
recovered profile lied (identity or admission violation).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.errors import GmonFormatError
from repro.gmon import dumps_gmon, parse_gmon, salvage_gmon_bytes
from repro.resilience.faults import random_bit_flips
from repro.serve.agent import AgentClient, AgentError, RetryPolicy, wait_until_healthy

TENANTS = ("alpha", "beta", "gamma")


def build_uploads(total: int, seed: int = 99):
    """The chaos corpus: (key, tenant, blob, kind) per planned upload.

    Roughly 70% healthy, 15% truncated, 15% bit-flipped — every mutant
    derived from a healthy blob so salvageability varies naturally.
    """
    from benchmarks.bench_fleet import build_corpus

    import random

    with tempfile.TemporaryDirectory(prefix="chaos_corpus_") as tmp:
        healthy_n = max(total * 7 // 10, 1)
        paths = build_corpus(Path(tmp), healthy_n, nbuckets=400, narcs=60,
                             arc_sites=90, seed=seed)
        blobs = [Path(p).read_bytes() for p in paths]
    planned: list[tuple[bytes, str]] = [(b, "healthy") for b in blobs]
    mutant_sources = blobs[: max(total - len(planned), 0)]
    half = len(mutant_sources) // 2
    for j, blob in enumerate(mutant_sources):
        if j < half:
            # spread cuts across the whole file so some land in the arc
            # table (salvageable to a merge) and some in the histogram
            # (quarantine territory)
            cut = 7 + (j * (len(blob) // 7 + 13)) % max(len(blob) - 8, 1)
            planned.append((blob[:cut], "truncated"))
        else:
            _off, _bit, mutated = next(
                iter(random_bit_flips(blob, 1, seed=seed + j))
            )
            planned.append((mutated, "bitflip"))
    planned = planned[:total]
    # Interleave mutants among healthy uploads per tenant, but keep each
    # tenant's FIRST upload healthy: the first accepted upload defines
    # the tenant's layout, and a strict-valid bitflip there would
    # (correctly, but unhelpfully for this gate) poison the fleet.
    per_tenant: dict[str, list[tuple[bytes, str]]] = {t: [] for t in TENANTS}
    for i, entry in enumerate(planned):
        per_tenant[TENANTS[i % len(TENANTS)]].append(entry)
    rng = random.Random(seed)
    for entries in per_tenant.values():
        tail = entries[1:]
        rng.shuffle(tail)
        entries[1:] = tail
    uploads = []
    i = 0
    while any(per_tenant.values()):
        for tenant in TENANTS:
            if per_tenant[tenant]:
                blob, kind = per_tenant[tenant].pop(0)
                uploads.append((f"up-{i:04d}", tenant, blob, kind))
                i += 1
    return uploads


def canonical_bytes(blob: bytes) -> bytes | None:
    """What the server journals for ``blob`` — or None if quarantined.

    Mirrors :meth:`TenantStore.accept` exactly: strict-valid bodies are
    journaled verbatim; salvageable ones as the re-serialized recovery;
    unsalvageable ones never enter merged state.  (Layout gating is
    checked against the observed outcome, not re-derived here.)
    """
    try:
        parse_gmon(blob)
        return blob
    except GmonFormatError:
        pass
    except Exception:  # noqa: BLE001 — a parser crash is its own failure
        return None
    data, report = salvage_gmon_bytes(blob)
    if report.buckets_read == 0 and not data.arcs:
        return None
    return dumps_gmon(data)


class Server:
    """The repro-serve subprocess under test."""

    def __init__(self, root: Path, logdir: Path) -> None:
        self.root = root
        self.logdir = logdir
        self.proc: subprocess.Popen | None = None
        self.host = self.port = None
        self._boot = 0

    def start(self) -> None:
        self._boot += 1
        announce = self.root / f"announce.{self._boot}"
        log = open(self.logdir / f"server.{self._boot}.log", "w")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.serve_cli",
             "--root", str(self.root / "state"), "--port", "0",
             "--checkpoint-every", "32", "--announce", str(announce)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if announce.exists():
                self.host, port_text = announce.read_text().split()
                self.port = int(port_text)
                break
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server died during boot {self._boot}; see its log"
                )
            time.sleep(0.02)
        else:
            raise RuntimeError("server never announced its port")
        if not wait_until_healthy(self.host, self.port, timeout=10):
            raise RuntimeError("server bound a port but never got healthy")

    def kill9(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(30)

    def graceful_stop(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return -9

    def logs(self) -> str:
        return "".join(
            (self.logdir / f"server.{b}.log").read_text()
            for b in range(1, self._boot + 1)
        )


REPO = Path(__file__).resolve().parent.parent


def mid_upload_disconnect(host: str, port: int, blob: bytes) -> None:
    """Send half an upload body, then vanish."""
    with socket.create_connection((host, port), timeout=5) as sock:
        head = (
            f"POST /v1/profiles/{TENANTS[0]} HTTP/1.1\r\n"
            f"host: chaos\r\ncontent-length: {len(blob)}\r\n\r\n"
        ).encode()
        sock.sendall(head + blob[: len(blob) // 2])
        # no shutdown, no rest of the body: just gone


def run_chaos(total: int, kill_at: int, disconnect_every: int) -> int:
    acked: dict[str, list[tuple[int, bytes]]] = {t: [] for t in TENANTS}
    counts = {"merged": 0, "salvaged": 0, "quarantined": 0, "retried": 0,
              "disconnects": 0, "dedup_verified": 0}
    uploads = build_uploads(total)
    with tempfile.TemporaryDirectory(prefix="chaos_serve_") as tmp:
        root = Path(tmp)
        server = Server(root, root)
        server.start()
        killed = False
        merged_log: list[tuple[int, str, str, bytes, int]] = []
        for n, (key, tenant, blob, kind) in enumerate(uploads):
            if n == kill_at:
                # kill -9 while an upload is half-way up the wire — and
                # do NOT restart here: the agent's retry path discovers
                # the dead server and the harness revives it, exactly
                # the sequence a supervisor-restarted deployment sees
                try:
                    mid_upload_disconnect(server.host, server.port, blob)
                except OSError:
                    pass
                server.kill9()
                killed = True
            elif disconnect_every and n % disconnect_every == 0 and n:
                try:
                    mid_upload_disconnect(server.host, server.port,
                                          uploads[0][2])
                    counts["disconnects"] += 1
                except OSError:
                    pass
            client = AgentClient(
                server.host, server.port, timeout=10,
                policy=RetryPolicy(retries=4, base_delay=0.05, seed=n),
            )
            expected = canonical_bytes(blob)
            for attempt in (1, 2):
                try:
                    result = client.upload(tenant, blob, key=key)
                except AgentError as exc:
                    if exc.status in (400, 409, 422):
                        # a permanent rejection (front door or
                        # quarantine) is correct for mutants, fatal
                        # for healthy uploads
                        if kind == "healthy":
                            print(f"chaos: FATAL: healthy upload {key} "
                                  f"rejected: {exc}", file=sys.stderr)
                            return 2
                        counts["quarantined"] += 1
                        break
                    if attempt == 1:
                        # the server may have died under us; revive it
                        # (a fresh boot can land on a new port)
                        if server.proc.poll() is not None:
                            server.start()
                            client = AgentClient(
                                server.host, server.port, timeout=10,
                                policy=RetryPolicy(retries=4,
                                                   base_delay=0.05, seed=n),
                            )
                        counts["retried"] += 1
                        continue
                    print(f"chaos: FATAL: upload {key} never acknowledged: "
                          f"{exc}", file=sys.stderr)
                    return 1
                else:
                    if expected is None:
                        print(f"chaos: FATAL: unsalvageable {kind} upload "
                              f"{key} was admitted as seq {result.seq}",
                              file=sys.stderr)
                        return 2
                    if result.attempts > 1:
                        counts["retried"] += 1
                    counts["merged"] += 1
                    if result.salvaged:
                        counts["salvaged"] += 1
                    acked[tenant].append((result.seq, expected))
                    merged_log.append((n, key, tenant, blob, result.seq))
                    break
        if not killed:
            print("chaos: FATAL: the kill point was never reached",
                  file=sys.stderr)
            return 1

        # uploads acked BEFORE the kill must dedup after it: re-send a
        # sample with their original keys and demand the original seq
        client = AgentClient(server.host, server.port, timeout=10)
        pre_kill = [e for e in merged_log if e[0] < kill_at]
        for n, key, tenant, blob, seq in pre_kill[:: max(len(pre_kill) // 10, 1)]:
            result = client.upload(tenant, blob, key=key)
            if result.status != "duplicate" or result.seq != seq:
                print(f"chaos: FATAL: pre-kill upload {key} (seq {seq}) "
                      f"re-sent after the kill came back as "
                      f"{result.status} seq {result.seq} — the journal "
                      "lost or double-counted it", file=sys.stderr)
                return 2
            counts["dedup_verified"] += 1

        # read back every tenant's merged profile from the survivor
        recovered: dict[str, bytes] = {}
        for tenant in TENANTS:
            if acked[tenant]:
                recovered[tenant] = client.merged_sum(tenant)
        rc = server.graceful_stop()
        logs = server.logs()
        if rc != 0:
            print(f"chaos: FATAL: graceful stop exited {rc}",
                  file=sys.stderr)
            return 1
        if "Traceback" in logs:
            print("chaos: FATAL: server logged a traceback:\n" + logs,
                  file=sys.stderr)
            return 1

        # offline truth: repro-merge over the acked canonical bytes in
        # sequence order
        from repro.cli.merge_cli import main as repro_merge

        for tenant, entries in acked.items():
            if not entries:
                continue
            tdir = root / f"offline-{tenant}"
            tdir.mkdir()
            files = []
            for seq, blob in sorted(entries):
                path = tdir / f"{seq:06d}.gmon"
                path.write_bytes(blob)
                files.append(str(path))
            out = str(tdir / "gmon.sum")
            if repro_merge(["-o", out, "-q", *files]) != 0:
                print(f"chaos: FATAL: offline repro-merge failed for "
                      f"{tenant}", file=sys.stderr)
                return 1
            offline = Path(out).read_bytes()
            if offline != recovered[tenant]:
                print(f"chaos: FATAL: tenant {tenant}: recovered profile "
                      f"({len(recovered[tenant])} bytes) differs from the "
                      f"offline merge ({len(offline)} bytes) of its "
                      f"{len(entries)} acknowledged uploads",
                      file=sys.stderr)
                return 2

    print(
        f"chaos: OK — {counts['merged']} merged ({counts['salvaged']} "
        f"salvaged), {counts['quarantined']} quarantined, "
        f"{counts['retried']} retried, {counts['disconnects']} injected "
        f"disconnects, 1 kill -9 survived, {counts['dedup_verified']} "
        f"pre-kill acks dedup-verified, "
        f"{sum(len(v) for v in acked.values())} uploads byte-verified "
        f"across {sum(1 for v in acked.values() if v)} tenants"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chaos_serve",
        description="kill -9 chaos gate for the repro-serve daemon",
    )
    parser.add_argument("--uploads", type=int, default=200,
                        help="total uploads to attempt (default 200)")
    parser.add_argument("--kill-at", type=int, default=None,
                        help="upload index to SIGKILL at (default: halfway)")
    parser.add_argument("--disconnect-every", type=int, default=23,
                        help="inject a mid-body hangup every N uploads")
    opts = parser.parse_args(argv)
    kill_at = opts.kill_at if opts.kill_at is not None else opts.uploads // 2
    return run_chaos(opts.uploads, kill_at, opts.disconnect_every)


if __name__ == "__main__":
    sys.exit(main())

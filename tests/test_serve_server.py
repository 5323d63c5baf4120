"""End-to-end exercises of the asyncio ingest daemon.

Every test boots a real :class:`ReproServer` on a loopback port inside
one event loop and speaks raw HTTP/1.1 to it — the same byte stream a
hostile network would deliver, including mid-body hangups.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.fleet import ProfileAccumulator
from repro.gmon import dumps_gmon, parse_gmon_raw
from repro.serve import ReproServer, ServeConfig

from tests.helpers import make_symbols, profile_data

SYMS = make_symbols("main", "work", "leaf")


def blob_for(arcs, ticks) -> bytes:
    return dumps_gmon(profile_data(SYMS, arcs, ticks))


BLOB_A = blob_for([("main", "work", 3), ("work", "leaf", 2)],
                  {"main": 4, "work": 2})
BLOB_B = blob_for([("main", "leaf", 1)], {"leaf": 5})
#: A different histogram layout (different symbol span).
BLOB_OTHER_LAYOUT = dumps_gmon(
    profile_data(make_symbols("main", "work", "leaf", "extra"),
                 [("main", "work", 1)], {"main": 1})
)


async def http(
    host, port, method, path, body=b"", headers=None,
    *, read_exact_response=True,
):
    """One raw HTTP exchange; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _exchange(reader, writer, method, path, body, headers)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _exchange(reader, writer, method, path, body=b"", headers=None):
    head = [f"{method} {path} HTTP/1.1", "host: t"]
    if body or method in ("POST", "PUT"):
        head.append(f"content-length: {len(body)}")
    for k, v in (headers or {}).items():
        head.append(f"{k}: {v}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    rheaders = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        rheaders[name.strip().lower()] = value.strip()
    length = int(rheaders.get("content-length", 0))
    payload = await reader.readexactly(length) if length else b""
    return status, rheaders, payload


def run(coro):
    return asyncio.run(coro)


async def booted(tmp_path, **overrides):
    config = ServeConfig(root=str(tmp_path / "state"), port=0, **overrides)
    server = ReproServer(config)
    host, port = await server.start()
    return server, host, port


class TestUploadPath:
    def test_merge_and_sum_roundtrip(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                s1, _, b1 = await http(host, port, "POST", "/v1/profiles/t1",
                                       BLOB_A)
                s2, _, b2 = await http(host, port, "POST", "/v1/profiles/t1",
                                       BLOB_B)
                assert (s1, s2) == (200, 200)
                assert json.loads(b1)["seq"] == 1
                assert json.loads(b2)["seq"] == 2
                s3, _, merged = await http(host, port, "GET",
                                           "/v1/profiles/t1/sum")
                assert s3 == 200
                return merged
            finally:
                await server.stop()

        merged = run(go())
        acc = ProfileAccumulator()
        acc.add_raw(parse_gmon_raw(BLOB_A))
        acc.add_raw(parse_gmon_raw(BLOB_B))
        assert merged == dumps_gmon(acc.result())

    def test_idempotency_key_dedups(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                key = {"x-idempotency-key": "upload-1"}
                _, _, b1 = await http(host, port, "POST", "/v1/profiles/t1",
                                      BLOB_A, key)
                s2, _, b2 = await http(host, port, "POST", "/v1/profiles/t1",
                                       BLOB_A, key)
                assert s2 == 200
                assert json.loads(b2)["status"] == "duplicate"
                assert json.loads(b2)["seq"] == json.loads(b1)["seq"]
                _, _, merged = await http(host, port, "GET",
                                          "/v1/profiles/t1/sum")
                return merged
            finally:
                await server.stop()

        merged = run(go())
        acc = ProfileAccumulator()
        acc.add_raw(parse_gmon_raw(BLOB_A))
        assert merged == dumps_gmon(acc.result())  # folded exactly once

    def test_bad_magic_rejected_before_body(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                status, _, body = await http(
                    host, port, "POST", "/v1/profiles/t1",
                    b"not-a-gmon-file" + b"\x00" * 100,
                )
                assert status == 400
                assert "not a profile data file" in json.loads(body)["error"]
                assert server.stats.rejected_front_door == 1
                # tenant state is untouched
                status, _, _ = await http(host, port, "GET",
                                          "/v1/profiles/t1/sum")
                assert status == 404
            finally:
                await server.stop()

        run(go())

    def test_oversized_declaration_rejected(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path, max_body=1024)
            try:
                status, _, _ = await http(
                    host, port, "POST", "/v1/profiles/t1", b"",
                    {"content-length": str(10 << 20)},
                )
                assert status == 413
            finally:
                await server.stop()

        run(go())

    def test_incompatible_layout_409(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                status, _, body = await http(
                    host, port, "POST", "/v1/profiles/t1", BLOB_OTHER_LAYOUT
                )
                assert status == 409
                assert "incompatible" in json.loads(body)["error"]
                _, _, merged = await http(host, port, "GET",
                                          "/v1/profiles/t1/sum")
                return merged
            finally:
                await server.stop()

        merged = run(go())
        acc = ProfileAccumulator()
        acc.add_raw(parse_gmon_raw(BLOB_A))
        assert merged == dumps_gmon(acc.result())  # reject left no trace

    def test_unsalvageable_body_quarantined(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                # right magic, nothing recoverable behind it
                status, _, body = await http(
                    host, port, "POST", "/v1/profiles/t1",
                    b"gmon\x01\x00" + b"\xff" * 6,
                )
                doc = json.loads(body)
                assert status == 422
                assert doc["status"] == "quarantined"
                sq, _, listing = await http(host, port, "GET",
                                            "/v1/quarantine/t1")
                entries = json.loads(listing)
                assert sq == 200 and len(entries) == 1
                assert entries[0]["entry"] == doc["entry"]
                assert "unsalvageable" in entries[0]["reason"]
            finally:
                await server.stop()

        run(go())

    def test_short_body_checks_all_six_magic_bytes(self, tmp_path):
        """A body shorter than the comment length field is held to the
        whole magic, version bytes included; a truncated body with the
        right magic still goes to salvage-or-quarantine."""
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                status, _, body = await http(
                    host, port, "POST", "/v1/profiles/t1", b"gmon\x02\x00\x00"
                )
                assert status == 400
                assert "not a profile data file" in json.loads(body)["error"]
                _, _, listing = await http(host, port, "GET",
                                           "/v1/quarantine/t1")
                assert json.loads(listing) == []
                status, _, _ = await http(
                    host, port, "POST", "/v1/profiles/t1", b"gmon\x01\x00\x00"
                )
                assert status == 422
                _, _, listing = await http(host, port, "GET",
                                           "/v1/quarantine/t1")
                assert len(json.loads(listing)) == 1
            finally:
                await server.stop()

        run(go())

    def test_nonsense_header_is_not_a_500(self, tmp_path):
        """Right magic, structurally-parseable but invalid header
        (high_pc below low_pc): salvage territory, never a crash."""
        import struct

        bad = (
            b"gmon\x01\x00" + struct.pack("<H", 0)
            + struct.pack("<IQQII", 1, 100, 50, 10, 60)  # high < low
            + b"\x00" * 40
        )

        async def go():
            server, host, port = await booted(tmp_path)
            try:
                status, _, body = await http(host, port, "POST",
                                             "/v1/profiles/t1", bad)
                assert status in (200, 422), json.loads(body)
                assert server.stats.errors == 0
            finally:
                await server.stop()

        run(go())

    def test_truncated_body_salvaged(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                status, _, body = await http(
                    host, port, "POST", "/v1/profiles/t1", BLOB_A[:-10]
                )
                doc = json.loads(body)
                assert status == 200
                assert doc["status"] == "merged" and doc["salvaged"]
                assert doc["warnings"]
            finally:
                await server.stop()

        run(go())

    def test_empty_upload_400(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                status, _, _ = await http(host, port, "POST",
                                          "/v1/profiles/t1", b"")
                assert status == 400
            finally:
                await server.stop()

        run(go())

    def test_invalid_tenant_name_400(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                # an encoded slash cannot smuggle a path traversal: the
                # decoded segment no longer matches any route
                status, _, _ = await http(
                    host, port, "POST", "/v1/profiles/..%2Fescape", BLOB_A
                )
                assert status == 404
                status, _, _ = await http(
                    host, port, "POST", "/v1/profiles/..", BLOB_A
                )
                assert status == 400
            finally:
                await server.stop()

        run(go())


class TestBackpressure:
    def test_tenant_queue_depth_429(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path, queue_depth=2)
            try:
                store = server.tenant("t1")
                store.inflight = 2  # as if two uploads sat on the shard
                status, rheaders, _ = await http(
                    host, port, "POST", "/v1/profiles/t1", BLOB_A
                )
                assert status == 429
                assert rheaders.get("retry-after") == "1"
                assert server.stats.throttled == 1
                store.inflight = 0
                status, _, _ = await http(host, port, "POST",
                                          "/v1/profiles/t1", BLOB_A)
                assert status == 200  # recovers once the queue drains
            finally:
                await server.stop()

        run(go())

    def test_global_byte_budget_429(self, tmp_path):
        async def go():
            server, host, port = await booted(
                tmp_path, max_inflight_bytes=len(BLOB_A) // 2
            )
            try:
                status, rheaders, _ = await http(
                    host, port, "POST", "/v1/profiles/t1", BLOB_A
                )
                assert status == 429
                assert rheaders.get("retry-after") == "2"
            finally:
                await server.stop()

        run(go())


class TestRobustness:
    def test_mid_body_disconnect_leaves_server_alive(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /v1/profiles/t1 HTTP/1.1\r\nhost: t\r\n"
                    + f"content-length: {len(BLOB_A)}\r\n\r\n".encode()
                    + BLOB_A[:20]  # hang up mid-body
                )
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                # the half-upload left nothing behind and took nothing down
                status, _, _ = await http(host, port, "GET", "/healthz")
                assert status == 200
                status, _, _ = await http(host, port, "GET",
                                          "/v1/profiles/t1/sum")
                assert status == 404
                assert server.stats.disconnects >= 1
            finally:
                await server.stop()

        run(go())

    def test_keep_alive_reuses_connection(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                s1, _, _ = await _exchange(reader, writer, "POST",
                                           "/v1/profiles/t1", BLOB_A)
                s2, _, merged = await _exchange(reader, writer, "GET",
                                                "/v1/profiles/t1/sum")
                writer.close()
                await writer.wait_closed()
                assert (s1, s2) == (200, 200)
                assert server.stats.connections == 1
            finally:
                await server.stop()

        run(go())

    def test_post_reject_closes_connection(self, tmp_path):
        """After a mid-body rejection the unread bytes must not be
        reparsed as the next request."""

        async def go():
            server, host, port = await booted(tmp_path)
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                reader, writer = await asyncio.open_connection(host, port)
                s, rheaders, _ = await _exchange(
                    reader, writer, "POST", "/v1/profiles/t1",
                    BLOB_OTHER_LAYOUT,
                )
                assert s == 409
                # server closed; the leftover body bytes die with it
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(go())

    def test_garbage_request_line(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"\x00\x01\x02 garbage\r\n\r\n")
                await writer.drain()
                line = await reader.readline()
                assert b"400" in line
                writer.close()
                await writer.wait_closed()
                status, _, _ = await http(host, port, "GET", "/healthz")
                assert status == 200
            finally:
                await server.stop()

        run(go())


class TestQueries:
    def test_unknown_endpoint_404_and_method_405(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                s1, _, _ = await http(host, port, "GET", "/v1/nope")
                s2, _, _ = await http(host, port, "PUT", "/healthz", b"x")
                assert (s1, s2) == (404, 405)
            finally:
                await server.stop()

        run(go())

    def test_stats_and_tenants(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                await http(host, port, "POST", "/v1/profiles/t2", BLOB_B)
                _, _, body = await http(host, port, "GET", "/v1/stats")
                doc = json.loads(body)
                assert set(doc["tenants"]) == {"t1", "t2"}
                assert doc["tenants"]["t1"]["accepted"] == 1
                _, _, body = await http(host, port, "GET", "/v1/tenants")
                assert json.loads(body) == ["t1", "t2"]
            finally:
                await server.stop()

        run(go())

    def test_window_query(self, tmp_path):
        clock_now = [1000.0]

        async def go():
            server, host, port = await booted(
                tmp_path, clock=lambda: clock_now[0]
            )
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                clock_now[0] += 100
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_B)
                clock_now[0] += 10
                # only BLOB_B lies within the last 60 seconds
                _, _, recent = await http(
                    host, port, "GET", "/v1/profiles/t1/sum?window=60"
                )
                s_empty, _, _ = await http(
                    host, port, "GET", "/v1/profiles/t1/sum?window=1"
                )
                s_bad, _, _ = await http(
                    host, port, "GET", "/v1/profiles/t1/sum?window=soon"
                )
                assert (s_empty, s_bad) == (404, 400)
                return recent
            finally:
                await server.stop()

        recent = run(go())
        acc = ProfileAccumulator()
        acc.add_raw(parse_gmon_raw(BLOB_B))
        assert recent == dumps_gmon(acc.result())

    def test_flat_needs_image(self, tmp_path):
        async def go():
            server, host, port = await booted(tmp_path)
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                status, _, body = await http(host, port, "GET",
                                             "/v1/profiles/t1/flat")
                assert status == 409
                assert "--image" in json.loads(body)["error"]
            finally:
                await server.stop()

        run(go())

    def test_flat_and_graph_with_symbol_image(self, tmp_path):
        image = tmp_path / "syms.json"
        SYMS.save(image)

        async def go():
            server, host, port = await booted(tmp_path, image=str(image))
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A)
                s1, _, flat = await http(host, port, "GET",
                                         "/v1/profiles/t1/flat")
                s2, _, graph = await http(host, port, "GET",
                                          "/v1/profiles/t1/graph")
                assert (s1, s2) == (200, 200)
                assert b"main" in flat and b"work" in flat
                assert b"main" in graph
            finally:
                await server.stop()

        run(go())


class TestPersistenceAcrossRestart:
    def test_restart_recovers_identical_state(self, tmp_path):
        async def first():
            server, host, port = await booted(tmp_path)
            try:
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_A,
                           {"x-idempotency-key": "a"})
                await http(host, port, "POST", "/v1/profiles/t1", BLOB_B,
                           {"x-idempotency-key": "b"})
                _, _, merged = await http(host, port, "GET",
                                          "/v1/profiles/t1/sum")
                return merged
            finally:
                await server.stop()

        async def second():
            server, host, port = await booted(tmp_path)
            try:
                # a retried upload still dedups after the restart
                s, _, body = await http(host, port, "POST",
                                        "/v1/profiles/t1", BLOB_A,
                                        {"x-idempotency-key": "a"})
                assert s == 200 and json.loads(body)["status"] == "duplicate"
                _, _, merged = await http(host, port, "GET",
                                          "/v1/profiles/t1/sum")
                return merged
            finally:
                await server.stop()

        assert run(first()) == run(second())

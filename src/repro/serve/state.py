"""Durable per-tenant ingest state: accumulator + journal + checkpoint.

A :class:`TenantStore` owns everything one tenant's profiles touch:

* the in-memory :class:`~repro.fleet.ProfileAccumulator` (the merged
  state queries read);
* the write-ahead journal (:mod:`repro.serve.journal`) every accepted
  upload hits — fsynced — *before* it is folded or acknowledged;
* the checkpoint: a single atomic container file holding the merged
  gmon bytes plus JSON metadata (last applied sequence number,
  idempotency keys, accumulated warnings, counters), compacted every
  ``checkpoint_every`` records so the journal stays short;
* the idempotency-key window that makes agent retries exactly-once;
* the retention deque of recent uploads that backs time-windowed
  queries.

Crash recovery (:meth:`TenantStore.open`) is: load the checkpoint if
its container verifies, replay the journal's maximal valid prefix,
skip records the checkpoint already covers (sequence numbers make any
crash ordering safe), truncate the torn tail, and carry every
degradation fact forward as warnings.  The invariant the fault
-injection suite pins: for *any* prefix of journal bytes, recovery
succeeds and the merged state equals an offline merge of exactly the
records that were durable — nothing lost, nothing double-counted,
nothing invented.

Everything here is synchronous and single-threaded per tenant; the
server's shard workers guarantee one tenant is only ever touched by
one worker (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

from repro.core import kernels
from repro.errors import GmonFormatError
from repro.fleet.accumulator import ProfileAccumulator
from repro.fleet.headers import HeaderKey
from repro.gmon.format import dumps_gmon, parse_gmon_raw, salvage_gmon_bytes
from repro.resilience.atomic import atomic_write_bytes
from repro.resilience.faults import FaultInjector

from repro.serve.journal import (
    JournalRecord,
    JournalWriter,
    ReplayReport,
    replay_journal,
)
from repro.serve.quarantine import Quarantine

CKPT_MAGIC = b"RSC1"
_CKPT_LEN = struct.Struct("<I")
CKPT_FORMAT = "repro-serve-ckpt-1"

JOURNAL_NAME = "journal.log"
CHECKPOINT_NAME = "checkpoint.bin"


@dataclass
class ServeConfig:
    """Tunables for the ingest service (server and stores share it)."""

    root: str
    host: str = "127.0.0.1"
    port: int = 0
    image: str | None = None
    shards: int = 4
    queue_depth: int = 64
    max_body: int = 8 << 20
    max_inflight_bytes: int = 64 << 20
    checkpoint_every: int = 64
    dedup_window: int = 4096
    retention_seconds: float = 3600.0
    max_recent: int = 1024
    read_timeout: float = 30.0
    fsync: bool = True
    clock: Callable[[], float] = time.monotonic

    def tenants_root(self) -> str:
        return os.path.join(self.root, "tenants")

    def quarantine_root(self) -> str:
        return os.path.join(self.root, "quarantine")


# -- outcomes -------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What became of one upload."""

    status: str  # "merged" | "duplicate" | "quarantined"
    seq: int = 0
    salvaged: bool = False
    warnings: tuple[str, ...] = ()
    reason: str = ""
    entry: str = ""


# -- the checkpoint container ---------------------------------------------------


def encode_checkpoint(meta: dict, gmon: bytes) -> bytes:
    """One atomic container: magic + meta JSON + gmon bytes + checksum."""
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (
        CKPT_MAGIC
        + _CKPT_LEN.pack(len(meta_b))
        + meta_b
        + _CKPT_LEN.pack(len(gmon))
        + gmon
    )
    return body + hashlib.blake2b(body, digest_size=16).digest()


def decode_checkpoint(blob: bytes) -> tuple[dict, bytes] | None:
    """Verify and unpack a checkpoint container; None if it does not verify.

    The container is written atomically, so a mismatch means bit rot or
    tampering — the caller falls back to journal-only recovery and says
    so, it never trusts half a checkpoint.
    """
    if len(blob) < len(CKPT_MAGIC) + 2 * _CKPT_LEN.size + 16:
        return None
    body, digest = blob[:-16], blob[-16:]
    if hashlib.blake2b(body, digest_size=16).digest() != digest:
        return None
    if body[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        return None
    pos = len(CKPT_MAGIC)
    (meta_len,) = _CKPT_LEN.unpack_from(body, pos)
    pos += _CKPT_LEN.size
    if len(body) - pos < meta_len + _CKPT_LEN.size:
        return None
    try:
        meta = json.loads(body[pos : pos + meta_len].decode("utf-8"))
    except ValueError:
        return None
    pos += meta_len
    (gmon_len,) = _CKPT_LEN.unpack_from(body, pos)
    pos += _CKPT_LEN.size
    if len(body) - pos != gmon_len:
        return None
    if not isinstance(meta, dict) or meta.get("format") != CKPT_FORMAT:
        return None
    return meta, body[pos:]


# -- per-tenant state -----------------------------------------------------------


@dataclass
class TenantStats:
    accepted: int = 0
    salvaged: int = 0
    duplicates: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "salvaged": self.salvaged,
            "duplicates": self.duplicates,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TenantStats":
        return cls(
            accepted=int(d.get("accepted", 0)),
            salvaged=int(d.get("salvaged", 0)),
            duplicates=int(d.get("duplicates", 0)),
            quarantined=int(d.get("quarantined", 0)),
        )


class TenantStore:
    """One tenant's durable ingest state (see the module docstring)."""

    def __init__(self, name: str, config: ServeConfig,
                 quarantine: Quarantine) -> None:
        self.name = name
        self.config = config
        self.quarantine = quarantine
        self.dir = os.path.join(config.tenants_root(), name)
        os.makedirs(self.dir, exist_ok=True)
        self.acc = ProfileAccumulator()
        self.seq = 0
        self.ckpt_seq = 0  # highest seq the checkpoint covers
        self.since_checkpoint = 0
        self.keys: OrderedDict[str, int] = OrderedDict()
        self.recent: deque[tuple[float, bytes]] = deque()
        self.stats = TenantStats()
        self.inflight = 0  # uploads queued on this tenant's shard
        self.recovery_warnings: list[str] = []
        self.journal = JournalWriter(
            os.path.join(self.dir, JOURNAL_NAME), fsync=config.fsync
        )

    # -- construction / recovery ------------------------------------------

    @classmethod
    def open(cls, name: str, config: ServeConfig,
             quarantine: Quarantine) -> "TenantStore":
        """Open (and if needed recover) the tenant rooted at its directory."""
        store = cls(name, config, quarantine)
        store._recover()
        return store

    def _recover(self) -> None:
        ckpt_path = os.path.join(self.dir, CHECKPOINT_NAME)
        if os.path.exists(ckpt_path):
            with open(ckpt_path, "rb") as f:
                blob = f.read()
            decoded = decode_checkpoint(blob)
            if decoded is None:
                self.recovery_warnings.append(
                    f"{self.name}: checkpoint did not verify; recovered "
                    "from the journal alone (records compacted into the "
                    "bad checkpoint are lost)"
                )
                self.quarantine.put(
                    self.name, blob, "checkpoint container failed to verify",
                    source=ckpt_path,
                )
            else:
                meta, gmon = decoded
                self.acc.add_raw(parse_gmon_raw(gmon))
                # the checkpoint blob re-parses clean; restore the real
                # warning history from meta instead
                self.acc._warnings[:] = []
                for w in meta.get("warnings", []):
                    self.acc.add_warning(str(w))
                self.ckpt_seq = int(meta.get("last_seq", 0))
                self.seq = self.ckpt_seq
                for key, kseq in meta.get("keys", []):
                    self.keys[str(key)] = int(kseq)
                self.stats = TenantStats.from_dict(meta.get("stats", {}))
        records, report = replay_journal(self.journal.path)
        self.replay_report: ReplayReport = report
        applied = 0
        for rec in records:
            if rec.seq <= self.ckpt_seq:
                continue  # already inside the checkpoint
            try:
                raw = parse_gmon_raw(rec.blob)
            except GmonFormatError as exc:
                # checksummed frames should never hold a bad blob; keep
                # the state sane anyway and say what happened
                self.recovery_warnings.append(
                    f"{self.name}: journal record seq {rec.seq} held an "
                    f"unparseable profile ({exc}); skipped"
                )
                continue
            self.acc.add_raw(raw)
            for w in rec.warnings:
                self.acc.add_warning(w)
            if rec.key:
                self._remember_key(rec.key, rec.seq)
            self.seq = max(self.seq, rec.seq)
            self.stats.accepted += 1
            if rec.warnings:
                self.stats.salvaged += 1
            applied += 1
        self.since_checkpoint = applied
        if not report.clean:
            self.recovery_warnings.append(
                f"{self.name}: journal tail dropped at byte "
                f"{report.consumed_bytes}/{report.total_bytes} "
                f"({report.torn_reason}); the frame being written when "
                "the service died was never acknowledged"
            )
            self.journal.truncate(report.consumed_bytes)
        for w in self.recovery_warnings:
            self.acc.add_warning(w)

    # -- the accept path ---------------------------------------------------

    def accept(self, blob: bytes, key: str = "",
               injector: FaultInjector | None = None) -> Outcome:
        """Validate/salvage/journal/fold one upload; never raises on content.

        The caller (a shard worker) is the only thread touching this
        tenant, so the journal-then-fold sequence needs no locking.
        """
        if key and key in self.keys:
            self.stats.duplicates += 1
            return Outcome("duplicate", seq=self.keys[key])
        salvaged = False
        warnings: tuple[str, ...] = ()
        salvage_report = None
        try:
            raw = parse_gmon_raw(blob)
            canonical = blob
        except GmonFormatError as exc:
            data, report = salvage_gmon_bytes(
                blob, source=f"{self.name}/upload"
            )
            if report.buckets_read == 0 and not data.arcs:
                self.stats.quarantined += 1
                entry = self.quarantine.put(
                    self.name, blob,
                    "unsalvageable upload: no histogram or arc data "
                    "recovered",
                    detail={"strict_error": str(exc),
                            "salvage": report.to_dict()},
                )
                return Outcome(
                    "quarantined", reason="unsalvageable upload",
                    entry=entry,
                )
            canonical = dumps_gmon(data)
            raw = parse_gmon_raw(canonical)
            salvaged = True
            salvage_report = report
            warnings = tuple(data.warnings)
        upload_key = HeaderKey(raw.low_pc, raw.high_pc, raw.nbuckets,
                               raw.profrate)
        if (
            self.acc.key is None
            and salvaged
            and "buckets" not in salvage_report.recovered_sections
        ):
            # A shrunken, partially-recovered histogram must not be the
            # layout every later healthy upload is judged against.
            self.stats.quarantined += 1
            entry = self.quarantine.put(
                self.name, blob,
                "salvaged upload too damaged to establish the tenant "
                "layout",
                detail={"salvage": salvage_report.to_dict()},
            )
            return Outcome(
                "quarantined",
                reason="salvaged upload too damaged to establish the "
                       "tenant layout",
                entry=entry,
            )
        if self.acc.key is not None and upload_key != self.acc.key:
            self.stats.quarantined += 1
            entry = self.quarantine.put(
                self.name, blob,
                "incompatible histogram layout",
                detail={
                    "expected": self.acc.key.describe(),
                    "actual": upload_key.describe(),
                    "salvaged": salvaged,
                },
            )
            return Outcome(
                "quarantined", reason="incompatible histogram layout",
                entry=entry,
            )
        seq = self.seq + 1
        self.journal.append(
            JournalRecord(seq, key, canonical, warnings), injector
        )
        # past this point the record is durable: fold it exactly as a
        # recovery replay would
        self.seq = seq
        self.acc.add_raw(raw)
        for w in warnings:
            self.acc.add_warning(w)
        if key:
            self._remember_key(key, seq)
        self.stats.accepted += 1
        if salvaged:
            self.stats.salvaged += 1
        self._remember_recent(canonical)
        self.since_checkpoint += 1
        if self.since_checkpoint >= self.config.checkpoint_every:
            self.checkpoint()
        return Outcome("merged", seq=seq, salvaged=salvaged,
                       warnings=warnings)

    def _remember_key(self, key: str, seq: int) -> None:
        self.keys[key] = seq
        self.keys.move_to_end(key)
        while len(self.keys) > self.config.dedup_window:
            self.keys.popitem(last=False)

    def _remember_recent(self, canonical: bytes) -> None:
        now = self.config.clock()
        self.recent.append((now, canonical))
        cutoff = now - self.config.retention_seconds
        while self.recent and (
            self.recent[0][0] < cutoff
            or len(self.recent) > self.config.max_recent
        ):
            self.recent.popleft()

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self, injector: FaultInjector | None = None) -> None:
        """Compact the journal into one atomic checkpoint container."""
        if self.acc.empty:
            return
        data = self.acc.result()
        meta = {
            "format": CKPT_FORMAT,
            "last_seq": self.seq,
            "keys": [[k, s] for k, s in self.keys.items()],
            "warnings": list(data.warnings),
            "stats": self.stats.as_dict(),
        }
        blob = encode_checkpoint(meta, dumps_gmon(data))
        atomic_write_bytes(
            os.path.join(self.dir, CHECKPOINT_NAME), blob, injector
        )
        # With the checkpoint durable, the journal's records are all
        # covered by last_seq; a crash anywhere around this truncate
        # merely leaves records that recovery will skip by seq.
        self.journal.truncate(0)
        self.since_checkpoint = 0

    # -- queries -----------------------------------------------------------

    def merged(self) -> bytes:
        """The all-time merged profile, as gmon bytes."""
        return dumps_gmon(self.acc.result())

    def merged_data(self):
        """The all-time merged profile, as ProfileData."""
        return self.acc.result()

    def window_data(self, seconds: float):
        """Merged ProfileData over uploads of the last ``seconds``.

        Only covers what the retention deque still holds (uploads since
        the last restart, within ``retention_seconds``); returns None
        when the window is empty.
        """
        cutoff = self.config.clock() - seconds
        acc = ProfileAccumulator()
        for ts, canonical in self.recent:
            if ts >= cutoff:
                acc.add_raw(parse_gmon_raw(canonical))
        if acc.empty:
            return None
        return acc.result()

    def stats_dict(self) -> dict:
        d = self.stats.as_dict()
        d.update(
            seq=self.seq,
            runs=self.acc.runs,
            total_ticks=self.acc.total_ticks if not self.acc.empty else 0,
            distinct_arcs=self.acc.distinct_arcs,
            layout=self.acc.key.digest() if self.acc.key else None,
            kernel_backend=kernels.default_backend_name(),
            recent=len(self.recent),
            quarantine_entries=self.quarantine.count(self.name),
        )
        return d

    def close(self) -> None:
        self.journal.close()

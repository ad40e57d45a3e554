"""Crash-safe per-subscriber append-only log.

One :class:`SubscriberLog` backs one durable subscription: events the
live fan-out path could not deliver are appended here (bundled bytes,
see :mod:`repro.store.format`) and replayed in seq order when the
subscriber returns.  The file is only ever appended, truncated at a
damaged tail during recovery, or rewritten whole by compaction — no
in-place mutation, so a crash at any instant leaves a prefix of valid
records plus at most one torn one.

Durability is a policy, not a constant:

- ``"always"`` — fsync after every append (and every cursor write).
  An acknowledged spill survives a power cut.
- ``"batch"`` — fsync once per ``sync_every`` appends and at close.
  A power cut can lose the last few spilled events; a process crash
  loses nothing (the OS has the writes).
- ``"never"`` — flush to the OS, never fsync.  Fastest; survives
  process crashes only.

The acknowledge cursor lives in a tiny sidecar (``<log>.ack``) written
atomically (temp + rename), so the cursor itself can never be torn.
Acked records are dead weight; once enough accumulate the log is
compacted — rewritten without the acked prefix — keeping disk usage
proportional to the *unacked* backlog.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from bisect import bisect_right
from typing import Callable

from repro.errors import StoreError
from repro.store import format as fmt
from repro.store.retention import Retention

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "batch", "never")

_ACK = struct.Struct(">QI")  # cursor seq, crc32 of the seq bytes


class _IndexEntry:
    """In-memory shadow of one on-disk record (payload stays on disk)."""

    __slots__ = ("seq", "offset", "size", "ts")

    def __init__(self, seq: int, offset: int, size: int, ts: float):
        self.seq = seq
        self.offset = offset
        self.size = size
        self.ts = ts


class SubscriberLog:
    """Append-only spill log for one durable subscriber.

    Not thread-safe; lives on the server's event loop like everything
    else.  Appends are synchronous file writes — with ``fsync="batch"``
    (the default) that is one buffered ``write()`` per spilled event,
    cheap enough to sit on the post path of a parked subscriber.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "batch",
        sync_every: int = 64,
        retention: Retention | None = None,
        compact_bytes: int = 64 << 10,
        metrics=None,
        on_incident: Callable[[str, str], None] | None = None,
        clock: Callable[[], float] = time.time,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, not {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        self.sync_every = max(1, sync_every)
        self.retention = retention
        self.compact_bytes = compact_bytes
        self._metrics = metrics
        self._on_incident = on_incident
        self._clock = clock
        self._writer = None
        self._index: list[_IndexEntry] = []
        self._seqs: list[int] = []  # parallel to _index, for bisect
        self._end = 0  # next append offset == current file size
        self.acked = 0
        self._unsynced = 0
        # Plain-int counters (always), mirrored into store.* metrics
        # when a registry was provided.
        self.appended = 0
        self.fsyncs = 0
        self.truncations = 0
        self.evicted_events = 0
        self.compactions = 0
        self.recovered_detail = ""

    # -- lifecycle ----------------------------------------------------------------

    def open(self) -> "SubscriberLog":
        """Open (creating if absent), recovering from a damaged tail.

        The recovery scan walks the file from byte 0 and truncates at
        the last intact record.  A torn tail is the normal signature
        of a crash mid-append and is merely counted; a CRC mismatch
        with plausible data behind it is corruption and additionally
        raises a flight-recorder incident through ``on_incident``.
        """
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        result = fmt.scan(data)
        if result.status != fmt.COMPLETE:
            os.truncate(self.path, result.good_end)
            self.truncations += 1
            self._count("store.truncations")
            self.recovered_detail = f"{result.status}: {result.detail}"
            if result.status == fmt.BAD_CRC and self._on_incident is not None:
                self._on_incident(
                    "store-log-corrupt", f"{self.path}: {result.detail}"
                )
        self._index = [
            _IndexEntry(r.seq, r.offset, r.end - r.offset, r.ts)
            for r in result.records
        ]
        self._seqs = [entry.seq for entry in self._index]
        self._end = result.good_end
        self.acked = self._read_cursor()
        self._writer = open(self.path, "ab")
        return self

    def close(self) -> None:
        if self._writer is not None:
            self._sync(force=self.fsync != "never")
            self._writer.close()
            self._writer = None

    @property
    def closed(self) -> bool:
        return self._writer is None

    # -- cursor sidecar -----------------------------------------------------------

    def _cursor_path(self) -> str:
        return self.path + ".ack"

    def _read_cursor(self) -> int:
        try:
            with open(self._cursor_path(), "rb") as fh:
                raw = fh.read(_ACK.size)
        except FileNotFoundError:
            return 0
        if len(raw) != _ACK.size:
            return 0
        seq, crc = _ACK.unpack(raw)
        if zlib.crc32(raw[:8]) != crc:
            return 0
        return seq

    def _write_cursor(self) -> None:
        body = struct.pack(">Q", self.acked)
        tmp = self._cursor_path() + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(body + struct.pack(">I", zlib.crc32(body)))
            fh.flush()
            if self.fsync == "always":
                os.fsync(fh.fileno())
                self.fsyncs += 1
                self._count("store.fsyncs")
        os.replace(tmp, self._cursor_path())

    # -- appending ----------------------------------------------------------------

    def append(self, seq: int, payload: bytes) -> None:
        """Spill one bundled event; seqs must be strictly increasing."""
        self._append_encoded(seq, payload)
        self._sync_policy()
        self._enforce_retention()

    def append_many(self, items: list[tuple[int, bytes]]) -> None:
        """Spill a batch (one write, one policy fsync) — the park path."""
        if not items:
            return
        chunks = []
        for seq, payload in items:
            chunks.append(self._frame(seq, payload))
        self._write(b"".join(chunks))
        self._sync_policy()
        self._enforce_retention()

    def _frame(self, seq: int, payload: bytes) -> bytes:
        if self._writer is None:
            raise StoreError(f"log {self.path} is closed")
        if self._seqs and seq <= self._seqs[-1]:
            raise StoreError(
                f"log {self.path}: seq {seq} not after tail {self._seqs[-1]}"
            )
        ts = self._clock()
        encoded = fmt.encode_record(seq, payload, ts)
        self._index.append(_IndexEntry(seq, self._end, len(encoded), ts))
        self._seqs.append(seq)
        self._end += len(encoded)
        self.appended += 1
        self._count("store.appended_events")
        return encoded

    def _append_encoded(self, seq: int, payload: bytes) -> None:
        self._write(self._frame(seq, payload))

    def _write(self, data: bytes) -> None:
        self._writer.write(data)
        self._unsynced += 1

    def _sync_policy(self) -> None:
        if self.fsync == "always":
            self._sync(force=True)
        elif self.fsync == "batch":
            if self._unsynced >= self.sync_every:
                self._sync(force=True)
            else:
                self._writer.flush()
        else:
            self._writer.flush()

    def _sync(self, *, force: bool) -> None:
        if self._writer is None:
            return
        self._writer.flush()
        if force and self._unsynced:
            os.fsync(self._writer.fileno())
            self.fsyncs += 1
            self._count("store.fsyncs")
        self._unsynced = 0

    # -- replay and acknowledgement -----------------------------------------------

    def replay(
        self,
        after_seq: int,
        *,
        max_events: int | None = None,
        max_bytes: int | None = None,
    ) -> list[tuple[int, bytes]]:
        """Read spilled events with seq > ``after_seq``, in order.

        Bounded by ``max_events``/``max_bytes`` so the replay pump can
        take window-sized bites; returns ``(seq, payload)`` pairs.
        """
        start = bisect_right(self._seqs, after_seq)
        if start >= len(self._index):
            return []
        # Appends land via a separate handle; make sure the reader
        # sees everything the index says is there.
        if self._writer is not None:
            self._writer.flush()
        out: list[tuple[int, bytes]] = []
        taken_bytes = 0
        with open(self.path, "rb") as fh:
            for entry in self._index[start:]:
                if max_events is not None and len(out) >= max_events:
                    break
                if max_bytes is not None and out and taken_bytes >= max_bytes:
                    break
                fh.seek(entry.offset)
                raw = fh.read(entry.size)
                record = fmt.decode_at(raw, 0)
                out.append((record.seq, record.payload))
                taken_bytes += entry.size
        return out

    def ack(self, seq: int) -> int:
        """Advance the cursor (cumulative max-merge); returns the cursor.

        Idempotent and monotonic, like CREDIT grants: a duplicate or
        stale ack is a no-op, so the acknowledge RPC can be retried
        freely.  Compacts when the acked prefix outgrows
        ``compact_bytes`` (or half the file).
        """
        if seq <= self.acked:
            return self.acked
        self.acked = seq
        self._count("store.acks")
        self._write_cursor()
        prefix = self._acked_prefix_bytes()
        if prefix and (
            prefix >= self.compact_bytes or prefix * 2 >= self.size_bytes
        ):
            self.compact()
        return self.acked

    def _acked_prefix_bytes(self) -> int:
        """File offset where the unacked records begin.

        Records are contiguous from offset 0 (recovery scans from 0,
        appends land at ``_end``, compaction rewrites from 0), so this is
        the acked prefix's size in O(log n), and ``_end`` minus it the
        backlog's.
        """
        cut = bisect_right(self._seqs, self.acked)
        return self._index[cut].offset if cut < len(self._index) else self._end

    def compact(self) -> None:
        """Rewrite the log without the acked prefix (temp + rename)."""
        keep = self.replay(self.acked)
        was_open = self._writer is not None
        if was_open:
            self._sync(force=self.fsync != "never")
            self._writer.close()
            self._writer = None
        tmp = self.path + ".compact"
        index: list[_IndexEntry] = []
        offset = 0
        old_ts = {entry.seq: entry.ts for entry in self._index}
        with open(tmp, "wb") as fh:
            for seq, payload in keep:
                ts = old_ts.get(seq, self._clock())
                encoded = fmt.encode_record(seq, payload, ts)
                fh.write(encoded)
                index.append(_IndexEntry(seq, offset, len(encoded), ts))
                offset += len(encoded)
            fh.flush()
            if self.fsync != "never":
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._index = index
        self._seqs = [entry.seq for entry in index]
        self._end = offset
        self._unsynced = 0
        self.compactions += 1
        self._count("store.compactions")
        if was_open:
            self._writer = open(self.path, "ab")

    # -- retention ----------------------------------------------------------------

    def _enforce_retention(self) -> None:
        if self.retention is None:
            return
        drop = self.retention.excess(
            [(e.seq, e.size, e.ts) for e in self._index],
            now=self._clock(),
        )
        if drop <= 0:
            return
        floor = self._index[drop - 1].seq
        # Records past the cursor that retention throws away were never
        # delivered — that is data loss by policy, counted loudly.
        evicted = sum(1 for e in self._index[:drop] if e.seq > self.acked)
        if evicted:
            self.evicted_events += evicted
            self._count("store.evicted_events", evicted)
            if self._on_incident is not None:
                self._on_incident(
                    "store-retention-evict",
                    f"{self.path}: dropped {evicted} undelivered events "
                    f"(retention {self.retention.describe()})",
                )
        if floor > self.acked:
            self.acked = floor
            self._write_cursor()
        self.compact()

    # -- introspection ------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self._end

    @property
    def first_seq(self) -> int:
        return self._seqs[0] if self._seqs else 0

    @property
    def last_seq(self) -> int:
        return self._seqs[-1] if self._seqs else 0

    @property
    def backlog_events(self) -> int:
        """Spilled records not yet acknowledged."""
        return len(self._seqs) - bisect_right(self._seqs, self.acked)

    @property
    def backlog_bytes(self) -> int:
        return self._end - self._acked_prefix_bytes()

    def stats(self) -> dict:
        return {
            "path": self.path,
            "acked": self.acked,
            "first_seq": self.first_seq,
            "last_seq": self.last_seq,
            "backlog_events": self.backlog_events,
            "backlog_bytes": self.backlog_bytes,
            "size_bytes": self.size_bytes,
            "appended": self.appended,
            "fsyncs": self.fsyncs,
            "truncations": self.truncations,
            "evicted_events": self.evicted_events,
            "compactions": self.compactions,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)

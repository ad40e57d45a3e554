"""SubscriberLog crash recovery, acknowledgement, and retention.

The satellite-3 crash tests live here: a log whose tail was torn by a
crash mid-append recovers to the last intact record and keeps
appending; a log corrupted in the middle truncates *and* raises a
flight-recorder incident.  Plus the cursor/compaction arithmetic the
exactly-once story leans on.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreError
from repro.store import Retention, SubscriberLog
from repro.store import format as fmt


def make_log(tmp_path, **kwargs) -> SubscriberLog:
    return SubscriberLog(str(tmp_path / "sub.log"), **kwargs).open()


def fill(log: SubscriberLog, n: int, *, start: int = 1, size: int = 8) -> None:
    log.append_many([(start + i, bytes([65 + i % 26]) * size) for i in range(n)])


class TestAppendReplay:
    def test_roundtrip_in_order(self, tmp_path):
        log = make_log(tmp_path)
        log.append(1, b"one")
        log.append_many([(2, b"two"), (5, b"five")])
        assert log.replay(0) == [(1, b"one"), (2, b"two"), (5, b"five")]
        assert log.replay(2) == [(5, b"five")]
        assert log.replay(5) == []
        log.close()

    def test_replay_windows(self, tmp_path):
        log = make_log(tmp_path)
        fill(log, 10)
        assert [s for s, _ in log.replay(0, max_events=3)] == [1, 2, 3]
        one = fmt.record_size(b"x" * 8)
        assert [s for s, _ in log.replay(0, max_bytes=one * 2)] == [1, 2]
        # max_bytes always yields at least one record, however small.
        assert len(log.replay(0, max_bytes=1)) == 1
        log.close()

    def test_seqs_must_increase(self, tmp_path):
        log = make_log(tmp_path)
        log.append(5, b"x")
        with pytest.raises(StoreError):
            log.append(5, b"again")
        with pytest.raises(StoreError):
            log.append(4, b"backwards")
        log.close()

    def test_reopen_sees_everything(self, tmp_path):
        log = make_log(tmp_path)
        fill(log, 4)
        log.ack(2)
        log.close()
        again = SubscriberLog(log.path).open()
        assert again.acked == 2
        assert [s for s, _ in again.replay(again.acked)] == [3, 4]
        again.close()


class TestCrashRecovery:
    def test_truncated_tail_recovers_to_last_record(self, tmp_path):
        log = make_log(tmp_path, fsync="always")
        fill(log, 5)
        log.close()
        # Crash mid-append: the tail record is half-written.
        size = os.path.getsize(log.path)
        os.truncate(log.path, size - 5)
        incidents = []
        again = SubscriberLog(
            log.path, on_incident=lambda r, d: incidents.append(r)
        ).open()
        assert [s for s, _ in again.replay(0)] == [1, 2, 3, 4]
        assert again.truncations == 1
        assert "torn-tail" in again.recovered_detail
        # A torn tail is a normal crash signature, not corruption.
        assert incidents == []
        # The log keeps working where it left off.
        again.append(6, b"after")
        assert [s for s, _ in again.replay(4)] == [6]
        again.close()

    def test_corrupted_crc_truncates_and_raises_incident(self, tmp_path):
        log = make_log(tmp_path)
        fill(log, 4)
        log.close()
        # Flip a payload bit in record 3 — records 3 and 4 are lost
        # (the scan cannot trust anything past the damage).
        offset = fmt.record_size(b"x" * 8) * 2 + fmt.HEADER_SIZE + 1
        with open(log.path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ 0xFF]))
        incidents = []
        again = SubscriberLog(
            log.path, on_incident=lambda r, d: incidents.append((r, d))
        ).open()
        assert [s for s, _ in again.replay(0)] == [1, 2]
        assert incidents and incidents[0][0] == "store-log-corrupt"
        assert "crc mismatch" in incidents[0][1]
        again.close()

    def test_empty_and_missing_files(self, tmp_path):
        log = make_log(tmp_path)
        assert log.replay(0) == []
        assert log.backlog_events == 0
        log.close()

    def test_corrupt_cursor_sidecar_reads_as_zero(self, tmp_path):
        log = make_log(tmp_path)
        fill(log, 2)
        log.ack(1)
        log.close()
        with open(log.path + ".ack", "r+b") as fh:
            fh.write(b"\xde\xad")
        again = SubscriberLog(log.path).open()
        # A torn cursor never advances the cursor wrongly — it resets
        # to 0 and redelivery is deduped client-side.
        assert again.acked == 0
        again.close()


class TestAckCompaction:
    def test_ack_is_cumulative_max_merge(self, tmp_path):
        log = make_log(tmp_path)
        fill(log, 4)
        assert log.ack(3) == 3
        assert log.ack(1) == 3  # stale ack is a no-op
        assert log.ack(3) == 3  # duplicate too
        assert log.backlog_events == 1
        log.close()

    def test_compaction_drops_acked_prefix(self, tmp_path):
        log = make_log(tmp_path, compact_bytes=1)  # compact eagerly
        fill(log, 8, size=32)
        before = log.size_bytes
        log.ack(6)
        assert log.compactions >= 1
        assert log.size_bytes < before
        assert log.first_seq == 7
        assert [s for s, _ in log.replay(log.acked)] == [7, 8]
        # Compaction survives a reopen: same records, same cursor.
        log.close()
        again = SubscriberLog(log.path).open()
        assert again.acked == 6
        assert [s for s, _ in again.replay(again.acked)] == [7, 8]
        again.close()


class _CountingIndex(list):
    """A log index that counts the entries read out of it."""

    touched = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.touched += len(item) if isinstance(key, slice) else 1
        return item

    def __iter__(self):
        self.touched += len(self)
        return super().__iter__()


def _explicit_sums(log: SubscriberLog) -> tuple[int, int]:
    """(acked prefix, backlog) bytes, summed record by record."""
    records = log.replay(0)
    acked = sum(fmt.record_size(p) for s, p in records if s <= log.acked)
    backlog = sum(fmt.record_size(p) for s, p in records if s > log.acked)
    return acked, backlog


_LOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 4), st.integers(0, 40)),
        st.tuples(st.just("ack"), st.integers(0, 6)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("reopen")),
    ),
    max_size=25,
)


class TestBacklogArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=_LOG_OPS,
        max_bytes=st.one_of(st.none(), st.integers(100, 600)),
        compact_bytes=st.sampled_from([1, 256, 1 << 20]),
    )
    def test_offsets_equal_the_explicit_sums(self, ops, max_bytes, compact_bytes):
        """Backlog and acked-prefix bytes from offsets match summing the
        records, across append, ack, compaction, retention and reopen."""
        retention = Retention(max_bytes=max_bytes) if max_bytes else None
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "sub.log")

            def open_log() -> SubscriberLog:
                return SubscriberLog(
                    path, fsync="never", retention=retention,
                    compact_bytes=compact_bytes,
                ).open()

            log = open_log()
            seq = 0
            for op in ops:
                if op[0] == "append":
                    _, count, size = op
                    log.append_many(
                        [(seq + i + 1, b"p" * size) for i in range(count)]
                    )
                    seq += count
                elif op[0] == "ack":
                    log.ack(log.acked + op[1])
                elif op[0] == "compact":
                    log.compact()
                else:
                    log.close()
                    log = open_log()
                acked, backlog = _explicit_sums(log)
                assert log.backlog_bytes == backlog
                assert log._acked_prefix_bytes() == acked
                assert acked + backlog == log.size_bytes
            log.close()

    def test_gauge_refresh_cost_does_not_grow_with_the_log(self, tmp_path):
        """Spill with ``attach_store`` refreshes the backlog gauges on
        every post; reading them must not walk the index, or spilling n
        events costs O(n^2)."""

        def touched(n: int) -> int:
            log = SubscriberLog(
                str(tmp_path / f"sub-{n}.log"), fsync="never",
                compact_bytes=1 << 40,
            ).open()
            fill(log, n)
            log._index = index = _CountingIndex(log._index)
            log.ack(1)
            log.ack(2)
            assert log.backlog_bytes == _explicit_sums(log)[1]
            index.touched = 0
            log.append(n + 1, b"x")
            log.backlog_bytes
            log.ack(3)
            log.stats()
            log.close()
            return index.touched

        assert touched(50) == touched(2000)


class TestRetention:
    def test_max_bytes_evicts_oldest_and_counts(self, tmp_path):
        incidents = []
        one = fmt.record_size(b"x" * 32)
        log = SubscriberLog(
            str(tmp_path / "sub.log"),
            retention=Retention(max_bytes=one * 3),
            on_incident=lambda r, d: incidents.append(r),
        ).open()
        fill(log, 6, size=32)
        # Only ~3 records' worth may remain; the dropped ones were
        # never delivered, so the eviction is loud.
        assert log.size_bytes <= one * 3
        assert log.evicted_events >= 3
        assert "store-retention-evict" in incidents
        # The cursor advanced past the evicted floor so replay never
        # hands out a gap it cannot fill.
        assert log.acked >= log.first_seq - 1
        log.close()

    def test_max_age_evicts_expired(self, tmp_path):
        now = [1000.0]
        log = SubscriberLog(
            str(tmp_path / "sub.log"),
            retention=Retention(max_age=10.0),
            clock=lambda: now[0],
        ).open()
        log.append(1, b"old")
        log.append(2, b"old2")
        now[0] = 1020.0
        log.append(3, b"fresh")
        assert [s for s, _ in log.replay(log.acked)] == [3]
        assert log.evicted_events == 2
        log.close()

    def test_acked_records_evict_quietly(self, tmp_path):
        one = fmt.record_size(b"x" * 32)
        incidents = []
        log = SubscriberLog(
            str(tmp_path / "sub.log"),
            retention=Retention(max_bytes=one * 4),
            on_incident=lambda r, d: incidents.append(r),
        ).open()
        fill(log, 4, size=32)
        log.ack(4)  # everything delivered...
        fill(log, 4, start=5, size=32)  # ...then pushed out by new spills
        assert log.evicted_events == 0
        assert incidents.count("store-retention-evict") == 0
        log.close()

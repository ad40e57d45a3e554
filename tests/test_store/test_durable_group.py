"""Durable subscriptions on a local UpcallGroup: park, spill, replay.

Local subscribers (plain callables + an explicit signature) exercise
the whole durable state machine without a wire: a dead delivery path
parks the subscription and spills its backlog, a re-subscribe under
the same id replays the log in seq order, queue overflow spills
instead of dropping, and the topic seq survives a simulated restart.
"""

import asyncio

import pytest

from repro.bundlers import default_registry
from repro.cluster import UpcallGroup
from repro.core import UpcallSignature
from repro.errors import (
    FlushTimeoutError,
    StoreError,
    UpcallError,
)
from repro.store import ReplayCursor, Spool
from tests.support import async_test, eventually

SIG = UpcallSignature((int, int), type(None), default_registry())


def make_group(tmp_path, **kwargs) -> tuple[UpcallGroup, Spool]:
    spool = Spool(str(tmp_path / "spool"), fsync="never")
    kwargs.setdefault("resume_poll", 0.02)
    group = UpcallGroup("events", store=spool, **kwargs)
    # The caller owns the spool (the group never closes it): close it
    # with the group, so no test leaks its log files.
    close_group = group.close

    async def close() -> None:
        await close_group()
        spool.close()

    group.close = close
    return group, spool


class TestRegistration:
    @async_test
    async def test_durable_requires_a_store(self):
        group = UpcallGroup("plain")
        with pytest.raises(StoreError):
            group.subscribe(lambda s, v: None, durable="a", signature=SIG)
        await group.close()

    @async_test
    async def test_local_durable_requires_a_signature(self, tmp_path):
        group, _ = make_group(tmp_path)
        with pytest.raises(StoreError):
            group.subscribe(lambda s, v: None, durable="a")
        await group.close()

    @async_test
    async def test_events_carry_the_topic_seq(self, tmp_path):
        group, _ = make_group(tmp_path)
        seen: list[tuple[int, int]] = []
        group.subscribe(
            lambda seq, value: seen.append((seq, value)),
            durable="a",
            signature=SIG,
        )
        for value in range(5):
            group.post(value)
        await group.flush()
        assert seen == [(i + 1, i) for i in range(5)]
        await group.close()

    @async_test
    async def test_takeover_is_latest_wins(self, tmp_path):
        group, _ = make_group(tmp_path)
        first: list[int] = []
        second: list[int] = []
        group.subscribe(
            lambda s, v: first.append(v), durable="a", signature=SIG
        )
        group.post(0)
        await group.flush()
        group.subscribe(
            lambda s, v: second.append(v), durable="a", signature=SIG
        )
        assert len(group) == 1  # the old registration was detached
        group.post(1)
        await group.flush()
        assert first == [0] and second == [1]
        await group.close()


class TestParkAndReplay:
    @async_test
    async def test_dead_path_parks_and_resubscribe_replays(self, tmp_path):
        group, _ = make_group(tmp_path)
        alive: list[tuple[int, int]] = []

        def dying(seq: int, value: int) -> None:
            if value >= 3:
                raise UpcallError("client gone")
            alive.append((seq, value))

        group.subscribe(dying, durable="a", signature=SIG)
        for value in range(10):
            group.post(value)
        await eventually(lambda: group.parked_subscribers == 1)
        assert alive == [(1, 0), (2, 1), (3, 2)]
        assert group.parks == 1
        # Posts while parked keep spilling.
        group.post(10)
        stats = group.stats()
        assert stats["parked"]["a"]["backlog_events"] == 8
        # The subscriber returns: replay hands it everything it missed,
        # in seq order, exactly once.
        cursor = ReplayCursor(3)
        replayed: list[tuple[int, int]] = []

        def revived(seq: int, value: int) -> None:
            if cursor.admit(seq):
                replayed.append((seq, value))

        group.subscribe(revived, durable="a", signature=SIG)
        await group.flush()
        assert replayed == [(seq, seq - 1) for seq in range(4, 12)]
        assert group.parked_subscribers == 0
        assert group.replayed == 8
        assert cursor.duplicates == 0
        await group.close()

    @async_test
    async def test_replay_is_fenced_from_live_posts(self, tmp_path):
        """Posts racing a replay land behind it — never interleaved."""
        group, _ = make_group(tmp_path, replay_chunk=2)
        boom = [True]

        def dying(seq: int, value: int) -> None:
            if boom[0]:
                raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        for value in range(6):
            group.post(value)
        await eventually(lambda: group.parked_subscribers == 1)
        order: list[int] = []

        async def slow(seq: int, value: int) -> None:
            order.append(seq)
            await asyncio.sleep(0.001)

        group.subscribe(slow, durable="a", signature=SIG)
        # Race live posts against the replay that is now running.
        for value in range(6, 12):
            group.post(value)
        await group.flush()
        assert order == sorted(order)
        assert order == list(range(1, 13))
        await group.close()

    @async_test
    async def test_resume_from_closes_the_in_doubt_window(self, tmp_path):
        group, _ = make_group(tmp_path)

        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        for value in range(5):
            group.post(value)
        await eventually(lambda: group.parked_subscribers == 1)
        got: list[int] = []
        # The client's own cursor says 1..3 were fully absorbed before
        # the crash: replay starts after them.
        group.subscribe(
            lambda s, v: got.append(s),
            durable="a",
            resume_from=3,
            signature=SIG,
        )
        await group.flush()
        assert got == [4, 5]
        await group.close()

    @async_test
    async def test_unsubscribe_spills_pending_for_later(self, tmp_path):
        group, _ = make_group(tmp_path)
        blocker = asyncio.Event()
        seen: list[int] = []

        async def slow(seq: int, value: int) -> None:
            await blocker.wait()
            seen.append(seq)

        key = group.subscribe(slow, durable="a", signature=SIG)
        for value in range(4):
            group.post(value)
        await asyncio.sleep(0.01)  # pump is blocked mid-delivery of seq 1
        group.unsubscribe(key)
        blocker.set()
        # The identity is not parked (unsubscribe is deliberate), but
        # the undelivered events — the in-flight one included, it never
        # completed — wait in the log for a re-subscribe.
        assert group.parked_subscribers == 0
        got: list[int] = []
        group.subscribe(
            lambda s, v: got.append(s), durable="a", signature=SIG
        )
        await group.flush()
        assert got == [1, 2, 3, 4]
        await group.close()


class TestOverflow:
    @async_test
    async def test_overflow_spills_instead_of_dropping(self, tmp_path):
        group, _ = make_group(tmp_path, queue_limit=2)
        release = asyncio.Event()
        seen: list[int] = []

        async def slow(seq: int, value: int) -> None:
            await release.wait()
            seen.append(seq)

        group.subscribe(slow, durable="a", signature=SIG)
        for value in range(12):
            group.post(value)
            await asyncio.sleep(0)
        release.set()
        await group.flush()
        # Nothing dropped, nothing reordered, nothing doubled — the
        # overflow drained through the spill log.
        assert seen == list(range(1, 13))
        assert group.dropped == 0
        assert group.evicted_subscribers == 0
        assert group.spilled > 0
        await group.close()


class TestRestart:
    @async_test
    async def test_seq_and_backlog_survive_a_restart(self, tmp_path):
        group, spool = make_group(tmp_path)

        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        for value in range(5):
            group.post(value)
        await eventually(lambda: group.parked_subscribers == 1)
        await group.close()
        spool.close()

        # "Restart": a fresh spool over the same directory.
        spool2 = Spool(str(tmp_path / "spool"), fsync="never")
        group2 = UpcallGroup("events", store=spool2)
        got: list[tuple[int, int]] = []
        group2.subscribe(
            lambda s, v: got.append((s, v)), durable="a", signature=SIG
        )
        await group2.flush()
        assert got == [(i + 1, i) for i in range(5)]
        # New posts continue past the old seqs — never reused, even
        # though live deliveries were not logged.
        group2.post(99)
        await group2.flush()
        assert got[-1][1] == 99 and got[-1][0] > 5
        await group2.close()
        spool2.close()

    @async_test
    async def test_forget_drops_the_identity(self, tmp_path):
        group, _ = make_group(tmp_path)

        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        group.post(0)
        await eventually(lambda: group.parked_subscribers == 1)
        assert group.forget("a") is True
        assert group.parked_subscribers == 0
        got: list[int] = []
        group.subscribe(lambda s, v: got.append(s), durable="a", signature=SIG)
        await group.flush()
        assert got == []  # the old backlog is gone
        await group.close()


class TestObservability:
    @async_test
    async def test_flush_timeout_names_the_durable_laggard(self, tmp_path):
        group, _ = make_group(tmp_path)
        blocker = asyncio.Event()

        async def stuck(seq: int, value: int) -> None:
            await blocker.wait()

        group.subscribe(stuck, durable="slowpoke", signature=SIG)
        for value in range(5):
            group.post(value)
        await asyncio.sleep(0.01)
        with pytest.raises(FlushTimeoutError) as err:
            await group.flush(timeout=0.05)
        assert "slowpoke" in str(err.value)
        assert "queued" in str(err.value)
        assert isinstance(err.value, asyncio.TimeoutError)  # old handlers
        blocker.set()
        await group.close()

    @async_test
    async def test_stats_expose_durable_depths(self, tmp_path):
        group, _ = make_group(tmp_path)

        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        for value in range(3):
            group.post(value)
        await eventually(lambda: group.parked_subscribers == 1)
        stats = group.stats()
        assert stats["parks"] == 1
        assert stats["spilled"] >= 3
        parked = stats["parked"]["a"]
        assert parked["backlog_events"] == 3
        assert parked["backlog_bytes"] > 0
        # A live durable subscriber reports its identity and depth.
        got: list[int] = []
        group.subscribe(lambda s, v: got.append(s), durable="a", signature=SIG)
        await group.flush()
        stats = group.stats()
        (entry,) = stats["per_subscriber"].values()
        assert entry["durable"] == "a"
        assert entry["depth"] == 0
        assert entry["backlog_events"] == 0
        await group.close()

    @async_test
    async def test_ack_truncates_through_the_group(self, tmp_path):
        group, spool = make_group(tmp_path)

        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        for value in range(4):
            group.post(value)
        await eventually(lambda: group.parked_subscribers == 1)
        assert group.ack("a", 4) == 4
        assert spool.topic("events").subscription("a").backlog_events == 0
        # Idempotent: a stale ack never regresses the cursor.
        assert group.ack("a", 2) == 4
        await group.close()

"""Each delivery outcome, failed in the middle of a batch, on durable subscribers.

The durable counterpart of ``tests/test_cluster/test_outcomes.py``: a
durable subscriber settles delivered, absorbed, handler-error and
whole-batch outcomes like a plain one, but a dead path *parks* it with
exactly the undelivered tail of the batch spilled, and a re-subscribe
replays each of those events once.  Also pinned here: a spill that
fails raises the ``store-spill-failed`` incident without failing the
publisher, and a replay cut off mid-batch (unsubscribe, close) loses
nothing a seq cursor cannot deduplicate.
"""

import asyncio

from repro.bundlers import default_registry
from repro.cluster import UpcallGroup
from repro.core import RemoteUpcall, UpcallSignature
from repro.errors import RemoteError, UpcallError
from repro.store import ReplayCursor, Spool, SubscriberLog
from tests.support import ScriptedSender, async_test, eventually

SIG = UpcallSignature((int, int), type(None), default_registry())


def make_group(tmp_path, **kwargs) -> tuple[UpcallGroup, Spool, list]:
    incidents: list[tuple[str, str]] = []
    spool = Spool(
        str(tmp_path / "spool"),
        fsync="never",
        on_incident=lambda reason, detail: incidents.append((reason, detail)),
    )
    kwargs.setdefault("resume_poll", 0.02)
    return UpcallGroup("events", store=spool, **kwargs), spool, incidents


def remote(sender: ScriptedSender) -> RemoteUpcall:
    return RemoteUpcall(7, SIG, sender)


def burst(group: UpcallGroup, values) -> None:
    for value in values:
        group.post(value)


class TestBatchSender:
    @async_test
    async def test_dead_path_parks_with_the_undelivered_tail(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        dead = UpcallError("client gone")
        sender = ScriptedSender(SIG, {2: dead})
        group.subscribe(remote(sender), durable="a")
        burst(group, range(5))
        await eventually(lambda: group.parked_subscribers == 1)
        assert sender.batches == [[(seq + 1, seq) for seq in range(5)]]
        assert group.delivered == 2 and group.errors == 0
        assert group.parks == 1
        assert group.spilled == 3  # events[2:], nothing before the dead one
        log = spool.topic("events").subscription("a")
        assert [seq for seq, _ in log.replay(0)] == [3, 4, 5]
        # A returning subscriber gets each undelivered event once.
        back = ScriptedSender(SIG)
        group.subscribe(remote(back), durable="a")
        await group.flush()
        assert back.delivered == [(3, 2), (4, 3), (5, 4)]
        assert group.replayed == 3
        assert group.parked_subscribers == 0
        assert log.acked == 5
        burst(group, [5])
        await group.flush()
        assert back.delivered[-1] == (6, 5)
        await group.close()
        spool.close()

    @async_test
    async def test_dead_path_mid_replay_parks_again(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        sender = ScriptedSender(SIG)
        sender.can_upcall = False
        group.subscribe(remote(sender), durable="a")
        burst(group, range(5))
        await eventually(lambda: group.parked_subscribers == 1)
        assert group.spilled == 5
        # The replay dies at seq 3: seqs 1-2 are acknowledged, 3-5 stay.
        flaky = ScriptedSender(SIG, {2: UpcallError("gone again")})
        group.subscribe(remote(flaky), durable="a")
        await eventually(lambda: group.parked_subscribers == 1)
        log = spool.topic("events").subscription("a")
        assert log.acked == 2
        back = ScriptedSender(SIG)
        group.subscribe(remote(back), durable="a")
        await group.flush()
        assert back.delivered == [(3, 2), (4, 3), (5, 4)]
        assert group.spilled == 5  # replayed records are never spilled twice
        assert group.parks == 2
        await group.close()
        spool.close()

    @async_test
    async def test_absorbed_void_upcall_counts_as_delivered(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        failed = RemoteError("RuntimeError", "handler raised")
        sender = ScriptedSender(SIG, {2: failed}, absorb=True)
        key = group.subscribe(remote(sender), durable="a")
        burst(group, range(5))
        await group.flush()
        assert group.delivered == 5 and group.errors == 0
        assert group.stats()["per_subscriber"][key]["delivered"] == 5
        assert group.parks == 0 and group.spilled == 0
        assert sender.reports == [failed]
        await group.close()
        spool.close()

    @async_test
    async def test_absorbable_dead_outcome_still_parks(self, tmp_path):
        """A durable subscriber must not count a lost event as delivered."""
        group, spool, _ = make_group(tmp_path)
        sender = ScriptedSender(SIG, {2: UpcallError("gone")}, absorb=True)
        group.subscribe(remote(sender), durable="a")
        burst(group, range(5))
        await eventually(lambda: group.parked_subscribers == 1)
        assert group.delivered == 2
        assert group.stats()["parked"]["a"]["backlog_events"] == 3
        await group.close()
        spool.close()

    @async_test
    async def test_handler_error_is_counted_and_delivery_goes_on(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        failed = RemoteError("RuntimeError", "handler raised")
        sender = ScriptedSender(SIG, {2: failed})
        key = group.subscribe(remote(sender), durable="a")
        burst(group, range(5))
        await group.flush()
        burst(group, [5])
        await group.flush()
        assert [args[1] for args in sender.delivered] == list(range(6))
        assert group.delivered == 5 and group.errors == 1
        assert failed in sender.reports
        assert key in group.subscriber_keys
        assert group.parks == 0 and group.spilled == 0
        await group.close()
        spool.close()

    @async_test
    async def test_whole_batch_marshalling_failure(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        sender = ScriptedSender(SIG)
        key = group.subscribe(remote(sender), durable="a")
        burst(group, (0, 1, "not an int", 3, 4))
        await group.flush()
        assert sender.batches == []
        assert group.errors == 5 and group.delivered == 0
        assert key in group.subscriber_keys
        assert group.parks == 0 and group.spilled == 0
        burst(group, [5])
        await group.flush()
        assert sender.delivered == [(6, 5)]
        await group.close()
        spool.close()


class TestLocalCallable:
    @async_test
    async def test_dead_path_parks_with_the_undelivered_tail(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        seen: list[int] = []

        def handler(seq: int, value: int) -> None:
            if value == 2:
                raise UpcallError("client gone")
            seen.append(seq)

        group.subscribe(handler, durable="a", signature=SIG)
        burst(group, range(5))
        await eventually(lambda: group.parked_subscribers == 1)
        assert seen == [1, 2]
        assert group.spilled == 3
        got: list[tuple[int, int]] = []
        group.subscribe(
            lambda seq, value: got.append((seq, value)),
            durable="a",
            signature=SIG,
        )
        await group.flush()
        assert got == [(3, 2), (4, 3), (5, 4)]
        assert group.replayed == 3
        await group.close()
        spool.close()

    @async_test
    async def test_handler_error_is_counted_and_delivery_goes_on(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        seen: list[int] = []

        def handler(seq: int, value: int) -> None:
            if value == 2:
                raise RuntimeError("boom")
            seen.append(value)

        group.subscribe(handler, durable="a", signature=SIG)
        burst(group, range(5))
        await group.flush()
        assert seen == [0, 1, 3, 4]
        assert group.delivered == 4 and group.errors == 1
        assert group.parks == 0
        await group.close()
        spool.close()

    @async_test
    async def test_handler_error_during_replay_moves_past_it(self, tmp_path):
        group, spool, _ = make_group(tmp_path)

        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        burst(group, range(5))
        await eventually(lambda: group.parked_subscribers == 1)
        seen: list[int] = []

        def handler(seq: int, value: int) -> None:
            if value == 2:
                raise RuntimeError("boom")
            seen.append(seq)

        group.subscribe(handler, durable="a", signature=SIG)
        await group.flush()
        assert seen == [1, 2, 4, 5]
        assert group.errors == 1 and group.delivered == 4
        assert group.replayed == 5
        assert spool.topic("events").subscription("a").acked == 5
        await group.close()
        spool.close()


class TestSpillFailure:
    @async_test
    async def test_failed_spill_at_park_raises_an_incident(
        self, tmp_path, monkeypatch
    ):
        group, spool, incidents = make_group(tmp_path)

        def full(self, items):
            raise OSError("disk full")

        monkeypatch.setattr(SubscriberLog, "append_many", full)
        sender = ScriptedSender(SIG, {2: UpcallError("gone")})
        group.subscribe(remote(sender), durable="a")
        burst(group, range(5))
        await eventually(lambda: group.parked_subscribers == 1)
        assert group.spilled == 0
        assert [reason for reason, _ in incidents] == ["store-spill-failed"]
        assert "events/a" in incidents[0][1] and "disk full" in incidents[0][1]
        await group.close()
        spool.close()

    @async_test
    async def test_failed_spill_while_parked_spares_the_publisher(
        self, tmp_path, monkeypatch
    ):
        group, spool, incidents = make_group(tmp_path)
        sender = ScriptedSender(SIG)
        sender.can_upcall = False
        group.subscribe(remote(sender), durable="a")
        burst(group, range(2))
        await eventually(lambda: group.parked_subscribers == 1)
        assert incidents == []

        def full(self, items):
            raise OSError("disk full")

        monkeypatch.setattr(SubscriberLog, "append_many", full)
        assert group.post(2) == 0  # nothing spilled, nothing raised
        assert [reason for reason, _ in incidents] == ["store-spill-failed"]
        monkeypatch.undo()
        assert group.post(3) == 1
        assert group.stats()["parked"]["a"]["backlog_events"] == 3
        await group.close()
        spool.close()


class TestCancelDuringReplay:
    async def park_six(self, group: UpcallGroup) -> None:
        def dying(seq: int, value: int) -> None:
            raise UpcallError("down")

        group.subscribe(dying, durable="a", signature=SIG)
        burst(group, range(6))
        await eventually(lambda: group.parked_subscribers == 1)

    @async_test
    async def test_unsubscribe_mid_replay_loses_nothing(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        await self.park_six(group)
        cursor = ReplayCursor()
        admitted: list[int] = []
        gate = asyncio.Event()

        async def slow(seq: int, value: int) -> None:
            if seq == 3:
                await gate.wait()
            if cursor.admit(seq):
                admitted.append(seq)

        key = group.subscribe(slow, durable="a", signature=SIG)
        await eventually(lambda: admitted == [1, 2])
        assert group.unsubscribe(key) is True
        gate.set()
        burst(group, [6])  # nobody is subscribed: not spilled
        assert group.parked_subscribers == 0

        def fast(seq: int, value: int) -> None:
            if cursor.admit(seq):
                admitted.append(seq)

        group.subscribe(fast, durable="a", signature=SIG)
        await group.flush()
        assert admitted == [1, 2, 3, 4, 5, 6]
        await group.close()
        spool.close()

    @async_test
    async def test_close_mid_replay_keeps_the_log_for_a_restart(self, tmp_path):
        group, spool, _ = make_group(tmp_path)
        await self.park_six(group)
        cursor = ReplayCursor()
        admitted: list[int] = []
        gate = asyncio.Event()

        async def slow(seq: int, value: int) -> None:
            if seq == 3:
                await gate.wait()
            if cursor.admit(seq):
                admitted.append(seq)

        group.subscribe(slow, durable="a", signature=SIG)
        await eventually(lambda: admitted == [1, 2])
        await group.close()
        spool.close()

        group2, spool2, _ = make_group(tmp_path)
        group2.subscribe(
            lambda seq, value: cursor.admit(seq) and admitted.append(seq),
            durable="a",
            signature=SIG,
            resume_from=cursor.last,
        )
        await group2.flush()
        assert admitted == [1, 2, 3, 4, 5, 6]
        await group2.close()
        spool2.close()

"""Each delivery outcome, failed in the middle of a batch, on plain subscribers.

The group settles every delivery into one of five outcomes: delivered,
absorbed (a void upcall degraded through the §4.3 error port, counted
as delivered), handler error (counted, delivery goes on), whole-batch
failure (the batch could not be marshalled), and dead path (the
subscriber is evicted).  Each test posts a burst that the pump takes as
one batch and fails one event in its middle, through both kinds of
delivery: a batch-capable sender (:class:`tests.support.ScriptedSender`
behind a real :class:`~repro.core.RemoteUpcall`) and a local callable.
"""

import asyncio

from repro.bundlers import default_registry
from repro.cluster import UpcallGroup
from repro.core import RemoteUpcall, UpcallSignature
from repro.errors import RemoteError, UpcallError
from repro.obs.metrics import MetricsRegistry
from tests.support import ScriptedSender, async_test

SIG = UpcallSignature((int,), type(None), default_registry())


def make_group(**kwargs) -> tuple[UpcallGroup, MetricsRegistry]:
    metrics = MetricsRegistry()
    return UpcallGroup("t", metrics=metrics, **kwargs), metrics


def counters(metrics: MetricsRegistry) -> tuple[float, float]:
    return (
        metrics.counter("cluster.fanout.delivered").value,
        metrics.counter("cluster.fanout.errors").value,
    )


def remote(sender: ScriptedSender) -> RemoteUpcall:
    return RemoteUpcall(7, SIG, sender)


class TestBatchSender:
    @async_test
    async def test_dead_path_evicts_with_the_queued_backlog(self):
        group, metrics = make_group()
        evictions: list[tuple[int, Exception]] = []
        group._on_evict = lambda key, exc: evictions.append((key, exc))
        dead = UpcallError("client gone")
        sender = ScriptedSender(SIG, {2: dead})
        sender.hold = asyncio.Event()
        key = group.subscribe(remote(sender))
        for value in range(5):
            group.post(value)
        await asyncio.sleep(0.01)  # the pump holds the first batch in flight
        for value in range(5, 8):
            group.post(value)
        sender.hold.set()
        await group.flush()
        assert sender.batches == [[(v,) for v in range(5)]]
        assert key not in group.subscriber_keys
        assert group.evicted_subscribers == 1
        assert group.evicted_events == 3  # the events queued behind the batch
        assert group.delivered == 2 and group.errors == 0
        assert counters(metrics) == (2, 0)
        assert evictions == [(key, dead)]
        assert dead in sender.reports
        await group.close()

    @async_test
    async def test_absorbed_void_upcall_counts_as_delivered(self):
        group, metrics = make_group()
        failed = RemoteError("RuntimeError", "handler raised")
        sender = ScriptedSender(SIG, {2: failed}, absorb=True)
        key = group.subscribe(remote(sender))
        for value in range(5):
            group.post(value)
        await group.flush()
        assert len(sender.batches) == 1
        assert group.delivered == 5 and group.errors == 0
        assert group.stats()["per_subscriber"][key]["delivered"] == 5
        assert counters(metrics) == (5, 0)
        assert sender.reports == [failed]
        await group.close()

    @async_test
    async def test_absorbed_dead_outcome_keeps_a_plain_subscriber(self):
        """A timed-out upcall degraded by the server is not an eviction."""
        group, _ = make_group()
        sender = ScriptedSender(SIG, {2: UpcallError("timed out")}, absorb=True)
        key = group.subscribe(remote(sender))
        for value in range(5):
            group.post(value)
        await group.flush()
        assert group.delivered == 5
        assert key in group.subscriber_keys
        assert group.evicted_subscribers == 0
        await group.close()

    @async_test
    async def test_handler_error_is_counted_and_delivery_goes_on(self):
        group, metrics = make_group()
        failed = RemoteError("RuntimeError", "handler raised")
        sender = ScriptedSender(SIG, {2: failed})
        key = group.subscribe(remote(sender))
        for value in range(5):
            group.post(value)
        await group.flush()
        group.post(5)
        await group.flush()
        assert [args for args in sender.delivered] == [(v,) for v in range(6)]
        assert group.delivered == 5 and group.errors == 1
        assert group.stats()["per_subscriber"][key]["delivered"] == 5
        assert counters(metrics) == (5, 1)
        assert failed in sender.reports
        assert key in group.subscriber_keys
        await group.close()

    @async_test
    async def test_whole_batch_marshalling_failure(self):
        group, metrics = make_group()
        sender = ScriptedSender(SIG)
        key = group.subscribe(remote(sender))
        for value in (0, 1, "not an int", 3, 4):
            group.post(value)
        await group.flush()
        # Encode-once marshals the whole batch before any write: one bad
        # event fails all five, and nothing reaches the sender.
        assert sender.batches == []
        assert group.errors == 5 and group.delivered == 0
        assert counters(metrics) == (0, 5)
        assert len(sender.reports) == 1
        assert key in group.subscriber_keys
        group.post(5)
        await group.flush()
        assert sender.batches == [[(5,)]]
        assert group.delivered == 1
        await group.close()

    @async_test
    async def test_dead_sender_is_evicted_before_sending(self):
        group, _ = make_group()
        sender = ScriptedSender(SIG)
        sender.can_upcall = False
        key = group.subscribe(remote(sender))
        for value in range(3):
            group.post(value)
        await group.flush()
        assert sender.batches == []
        assert key not in group.subscriber_keys
        assert group.evicted_subscribers == 1
        assert group.delivered == 0
        await group.close()


class TestLocalCallable:
    @async_test
    async def test_dead_path_evicts_with_the_queued_backlog(self):
        group, metrics = make_group()
        evictions: list[tuple[int, Exception]] = []
        group._on_evict = lambda key, exc: evictions.append((key, exc))
        dead = UpcallError("client gone")
        gate = asyncio.Event()
        seen: list[int] = []

        async def handler(value: int) -> None:
            if value == 1:
                await gate.wait()
            if value == 2:
                raise dead
            seen.append(value)

        key = group.subscribe(handler)
        for value in range(5):
            group.post(value)
        await asyncio.sleep(0.01)  # the pump is inside the batch, at value 1
        for value in range(5, 8):
            group.post(value)
        gate.set()
        await group.flush()
        assert seen == [0, 1]
        assert key not in group.subscriber_keys
        assert group.evicted_subscribers == 1
        assert group.evicted_events == 3
        assert group.delivered == 2 and group.errors == 0
        assert counters(metrics) == (2, 0)
        assert evictions == [(key, dead)]
        await group.close()

    @async_test
    async def test_handler_error_is_counted_and_delivery_goes_on(self):
        group, metrics = make_group()
        seen: list[int] = []

        def handler(value: int) -> None:
            if value == 2:
                raise RuntimeError("boom")
            seen.append(value)

        key = group.subscribe(handler)
        for value in range(5):
            group.post(value)
        await group.flush()
        assert seen == [0, 1, 3, 4]
        assert group.delivered == 4 and group.errors == 1
        assert group.stats()["per_subscriber"][key]["delivered"] == 4
        assert counters(metrics) == (4, 1)
        await group.close()

    @async_test
    async def test_unsubscribe_from_inside_a_batch_stops_it(self):
        group, _ = make_group()
        seen: list[int] = []
        keys: list[int] = []

        def handler(value: int) -> None:
            seen.append(value)
            if value == 1:
                group.unsubscribe(keys[0])

        keys.append(group.subscribe(handler))
        for value in range(5):
            group.post(value)
        await group.flush()
        await asyncio.sleep(0.01)
        assert seen == [0, 1]
        assert len(group) == 0
        await group.close()

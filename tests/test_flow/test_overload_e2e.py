"""End-to-end overload behaviour: shed, hint, retry, bounded memory.

A real :class:`~repro.ClamServer` is put under admission control and a
real :class:`~repro.ClamClient` drives it.  What these tests pin:

- a shed surfaces client-side as a *typed*
  :class:`~repro.errors.ServerOverloadedError` with the server's
  ``retry_after_ms`` hint, which crosses the wire inside the error
  message text;
- sheds are retryable regardless of idempotency (they happen before
  execution) and never poison the duplicate-serial cache: the retried
  serial executes;
- shed asynchronous posts are reported out of band and counted,
  not conflated with stale-object errors;
- credits bound the server's queued-call memory under an open-loop
  flood: per-channel in-flight never exceeds the configured window;
- an admission floor keeps interactive-class traffic flowing while
  batch-class traffic sheds.
"""

import asyncio
import itertools

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.errors import ServerOverloadedError
from repro.flow import PriorityClass, TokenBucket, priority_scope
from repro.rpc import RetryPolicy
from tests.support import async_test, eventually

_ids = itertools.count(1)

WORK_SOURCE = '''
import asyncio

from repro.stubs import RemoteInterface


class Work(RemoteInterface):
    def __init__(self):
        self.executed = 0
        self.posted = 0

    def bump(self) -> int:
        self.executed += 1
        return self.executed

    def note(self, value: int) -> None:
        self.posted += 1

    async def slow_note(self, value: int) -> None:
        self.posted += 1
        await asyncio.sleep(0.003)

    def counts(self) -> list[int]:
        return [self.executed, self.posted]
'''


class Work(RemoteInterface):
    def bump(self) -> int: ...
    def note(self, value: int) -> None: ...
    def slow_note(self, value: int) -> None: ...
    def counts(self) -> list[int]: ...


async def start(server_kwargs=None, client_kwargs=None):
    server = ClamServer(**(server_kwargs or {}))
    address = await server.start(f"memory://flow-e2e-{next(_ids)}")
    client = await ClamClient.connect(address, **(client_kwargs or {}))
    await client.load_module("flowwork", WORK_SOURCE)
    work = await client.create(Work)
    return server, client, work


class TestShedVerdicts:
    @async_test
    async def test_sync_shed_is_typed_with_hint(self):
        server, client, work = await start(
            server_kwargs=dict(admission=TokenBucket(5.0, burst=3))
        )
        try:
            with pytest.raises(ServerOverloadedError) as info:
                for _ in range(10):
                    await work.bump()
            assert info.value.retry_after_ms >= 1
            # Shed before execution: the bucket admitted exactly 3
            # bumps plus the create/load machinery it also judged.
            executed, _ = await _counts_eventually(work)
            assert executed <= 3
            assert server.metrics.counter("flow.admission.shed").value >= 1
        finally:
            await client.close()
            await server.shutdown()

    @async_test
    async def test_retry_honours_hint_and_shed_is_not_cached(self):
        """The retried serial executes: a shed never enters the dedup cache."""
        server, client, work = await start(
            server_kwargs=dict(admission=TokenBucket(50.0, burst=1)),
            client_kwargs=dict(
                retry=RetryPolicy(attempts=6, base_delay=0.001, max_delay=0.5)
            ),
        )
        try:
            # Burst token spent by create(); each bump may shed first,
            # then succeed on a retry of the *same serial* ~20ms later.
            results = [await work.bump() for _ in range(3)]
            assert results == [1, 2, 3]
            assert client.rpc.overload_retries >= 1
        finally:
            await client.close()
            await server.shutdown()

    @async_test
    async def test_shed_post_reported_out_of_band(self):
        server, client, work = await start(
            server_kwargs=dict(admission=TokenBucket(5.0, burst=2)),
            client_kwargs=dict(flush_delay=0.0),
        )
        try:
            for i in range(10):
                await work.note(i)
            await client.flush()
            await eventually(lambda: client.rpc.overload_posts >= 1)
            # Overload is not staleness: the proxy keeps working once
            # the bucket refills.
            await asyncio.sleep(0.3)
            assert isinstance(await _retry_bump(work), int)
        finally:
            await client.close()
            await server.shutdown()


class TestBoundedMemory:
    @async_test
    async def test_credit_window_bounds_server_inflight(self):
        """Open-loop flood of slow posts: in-flight ≤ the credit window."""
        window = 8
        server, client, work = await start(
            server_kwargs=dict(credit_window=window, credit_bytes=1 << 20),
        )
        try:
            for i in range(100):
                await work.slow_note(i)
            await client.flush()
            session = next(iter(server.sessions.values()))
            flow = session.dispatcher.flow
            await eventually(lambda: flow.inflight == 0, timeout=10.0)
            assert flow.max_inflight <= window
            _, posted = await _counts_eventually(work, expect_posted=100)
            assert posted == 100  # bounded, not lossy
            gate = client.rpc.credit_gate
            assert gate.used_msgs <= gate.granted_msgs
            assert gate.stalls >= 1  # the flood really did block on credits
        finally:
            await client.close()
            await server.shutdown()


class TestPriorityFloor:
    @async_test
    async def test_floor_keeps_interactive_flowing_while_batch_sheds(self):
        # Setup calls run interactive-scoped so the deliberately tiny
        # bucket cannot shed load_module/create.
        with priority_scope(PriorityClass.INTERACTIVE):
            server, client, work = await start(
                server_kwargs=dict(
                    admission=TokenBucket(
                        2.0, burst=1, floor=PriorityClass.INTERACTIVE
                    )
                )
            )
        try:
            # The bucket is empty for SYNC/BATCH traffic...
            with pytest.raises(ServerOverloadedError):
                for _ in range(5):
                    await work.bump()
            # ...but an interactive-scoped call bypasses it entirely.
            with priority_scope(PriorityClass.INTERACTIVE):
                assert isinstance(await work.bump(), int)
            shed_batch = server.metrics.counter("flow.admission.shed.sync").value
            assert shed_batch >= 1
            assert (
                server.metrics.counter("flow.admission.shed.interactive").value == 0
            )
        finally:
            await client.close()
            await server.shutdown()


async def _counts_eventually(work, *, expect_posted=None):
    executed = posted = -1
    for _ in range(50):
        try:
            executed, posted = await work.counts()
        except ServerOverloadedError:
            await asyncio.sleep(0.1)
            continue
        if expect_posted is None or posted >= expect_posted:
            return executed, posted
        await asyncio.sleep(0.02)
    return executed, posted


async def _retry_bump(work):
    for _ in range(20):
        try:
            return await work.bump()
        except ServerOverloadedError:
            await asyncio.sleep(0.1)
    raise AssertionError("bucket never refilled")

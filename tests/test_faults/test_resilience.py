"""Resilience of the live stack: deadlines, retries, dedup, timeouts.

Scripted fault schedules pin down one precise network failure per test
(drop this request, duplicate that one) and the assertions check the
paired client/server mechanisms: retry with the *same* serial, the
server's duplicate-call cache keeping execution at-most-once, the
late-reply audit trail (logged once per connection), and the
``connect_timeout`` bound on establishment.
"""

import asyncio
import itertools
import logging

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.errors import CallTimeoutError, TransportError
from repro.faults import FaultInjector, FaultKind
from repro.ipc import serve
from repro.rpc import RetryPolicy, deadline_scope, remaining_deadline
from repro.stubs import idempotent
from tests.support import async_test, eventually

_ids = itertools.count(1)

WORKER_SOURCE = '''
import asyncio

from repro.stubs import RemoteInterface


class Worker(RemoteInterface):
    def __init__(self):
        self.executed = 0

    def bump(self) -> int:
        self.executed += 1
        return self.executed

    def slowop(self) -> int:
        self.executed += 1
        return self.executed

    async def nap(self, delay_ms: int) -> int:
        await asyncio.sleep(delay_ms / 1000)
        self.executed += 1
        return self.executed

    def total(self) -> int:
        return self.executed
'''


class Worker(RemoteInterface):
    @idempotent
    def bump(self) -> int: ...
    def slowop(self) -> int: ...
    async def nap(self, delay_ms: int) -> int: ...
    @idempotent
    def total(self) -> int: ...


class MethodSchedule:
    """Scripted schedule keyed on frame *content*, not index.

    Fires ``kind`` on the first frame (in ``direction``) containing
    ``marker`` — which pins the fault on a specific call's request
    regardless of how many setup frames preceded it.  Frames carrying
    the module *source* (which spells every method name too) are
    exempted by the ``exclude`` marker.
    """

    def __init__(self, direction, marker, kind, *, times=1, exclude=b"RemoteInterface"):
        from repro.faults import FaultDecision

        self._direction = direction
        self._marker = marker
        self._kind = kind
        self._left = times
        self._exclude = exclude
        self._decision = FaultDecision(kind=kind)

    def decide(self, direction, index, frame):
        if (
            self._left > 0
            and direction == self._direction
            and self._marker in frame
            and self._exclude not in frame
        ):
            self._left -= 1
            return self._decision
        return None


async def start(schedule=None, **client_kwargs):
    server = ClamServer()
    address = await server.start(f"memory://resilience-{next(_ids)}")
    injector = None
    if schedule is not None:
        injector = FaultInjector(schedule)
        address = injector.wrap_url(address)
    client = await ClamClient.connect(address, **client_kwargs)
    await client.load_module("worker", WORKER_SOURCE)
    worker = await client.create(Worker)
    return server, client, worker, injector


async def stop(server, client, injector=None):
    await client.close()
    await server.shutdown()
    if injector is not None:
        injector.release_url()


def only_session(server):
    (session,) = server.sessions.values()
    return session


class TestRetryAndDedup:
    @async_test
    async def test_retry_resends_after_dropped_request(self):
        schedule = MethodSchedule("send", b"bump", FaultKind.DROP)
        server, client, worker, injector = await start(
            schedule,
            call_timeout=0.1,
            retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
        )
        assert await worker.bump() == 1
        assert await worker.total() == 1  # executed exactly once
        assert injector.counts() == {"drop": 1}
        assert client.metrics.counter("rpc.client.retries").value == 1
        await stop(server, client, injector)

    @async_test
    async def test_duplicate_request_executes_once(self):
        """The server's duplicate-serial cache keeps calls at-most-once.

        The duplicated request frame reaches the dispatcher twice; the
        second hit resends the cached answer without executing.  The
        surplus answer is absorbed by the client (as a no-op on the
        already-resolved waiter, or as a late reply — a scheduling
        race), never surfaced.
        """
        schedule = MethodSchedule("send", b"bump", FaultKind.DUPLICATE)
        server, client, worker, injector = await start(schedule)
        assert await worker.bump() == 1
        assert await worker.total() == 1
        session = only_session(server)
        await eventually(lambda: session.dispatcher.duplicate_calls == 1)
        # load_module, create, bump, total — the duplicate ran nothing.
        assert session.dispatcher.calls_executed == 4
        await stop(server, client, injector)

    @async_test
    async def test_unmarked_method_never_retries(self):
        schedule = MethodSchedule("send", b"slowop", FaultKind.DROP)
        server, client, worker, injector = await start(
            schedule,
            call_timeout=0.05,
            retry=RetryPolicy(attempts=5, base_delay=0.01, seed=1),
        )
        with pytest.raises(CallTimeoutError):
            await worker.slowop()
        assert client.metrics.counter("rpc.client.retries").value == 0
        await stop(server, client, injector)

    @async_test
    async def test_retry_survives_repeated_drops_until_attempts_exhaust(self):
        schedule = MethodSchedule("send", b"bump", FaultKind.DROP, times=10)
        server, client, worker, injector = await start(
            schedule,
            call_timeout=0.03,
            retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
        )
        with pytest.raises(CallTimeoutError):
            await worker.bump()
        # Two retries happened (three attempts), all eaten by the wire.
        assert client.metrics.counter("rpc.client.retries").value == 2
        assert await worker.total() == 0
        await stop(server, client, injector)


class TestLateReplies:
    @async_test
    async def test_late_replies_counted_and_logged_once(self, caplog):
        """Satellite: the late-reply path is audited, not silent.

        A caller that abandons its wait sends no deadline, so the nap
        finishes remotely and its reply arrives after the waiter gave
        up: a late reply.  Every one is counted; only the first is
        logged.
        """
        server, client, worker, _ = await start()
        with caplog.at_level(logging.WARNING, logger="repro.rpc.connection"):
            for _ in range(2):
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(worker.nap(60), 0.03)
            await eventually(lambda: client.rpc.late_replies == 2)
        assert client.metrics.counter("rpc.client.late_replies").value == 2
        late_logs = [r for r in caplog.records if "late reply" in r.message]
        assert len(late_logs) == 1
        await stop(server, client)


class TestDeadlines:
    @async_test
    async def test_deadline_scope_aborts_server_work(self):
        # Either side may win the race to report expiry: the client's
        # local wait (CallTimeoutError) or the server's abort arriving
        # as a remote DeadlineExpiredError.  Both mean the same thing.
        from repro.errors import RemoteError

        server, client, worker, _ = await start()
        with pytest.raises((CallTimeoutError, RemoteError)):
            with deadline_scope(0.05):
                await worker.nap(500)
        await asyncio.sleep(0.05)
        session = only_session(server)
        assert session.dispatcher.deadline_expired == 1
        assert await worker.total() == 0  # the nap never finished
        await stop(server, client)

    @async_test
    async def test_expired_scope_fails_before_sending(self):
        server, client, worker, _ = await start()
        with pytest.raises(CallTimeoutError, match="already expired"):
            with deadline_scope(0.01):
                await asyncio.sleep(0.03)
                await worker.bump()
        assert await worker.total() == 0
        await stop(server, client)

    @async_test
    async def test_nested_scopes_shrink_only(self):
        async def check():
            with deadline_scope(10.0):
                with deadline_scope(0.05):
                    assert remaining_deadline() <= 0.05
                assert 0.05 < remaining_deadline() <= 10.0

        await check()
        assert remaining_deadline() is None


class TestConnectTimeout:
    @async_test
    async def test_connect_timeout_raises_transport_error(self):
        """Satellite: a server that accepts but never answers HELLO."""

        async def mute_handler(conn):
            await asyncio.sleep(3600)

        listener = await serve("memory://mute-server", mute_handler)
        try:
            with pytest.raises(TransportError, match="timed out"):
                await ClamClient.connect(
                    "memory://mute-server", connect_timeout=0.05
                )
        finally:
            await listener.close()

    @async_test
    async def test_fast_connect_unaffected(self):
        server, client, worker, _ = await start(connect_timeout=5.0)
        assert await worker.bump() == 1
        await stop(server, client)

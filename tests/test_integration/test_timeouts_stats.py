"""Call timeouts and the server-stats builtin."""

import asyncio
import itertools

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.errors import CallTimeoutError
from tests.support import async_test

_ids = itertools.count(1)

SLOW_SOURCE = '''
import asyncio

from repro.stubs import RemoteInterface


class Slow(RemoteInterface):
    def __init__(self):
        self.finished = 0

    async def nap(self, delay_ms: int) -> int:
        await asyncio.sleep(delay_ms / 1000)
        self.finished += 1
        return delay_ms

    def finished_count(self) -> int:
        return self.finished
'''


class Slow(RemoteInterface):
    def nap(self, delay_ms: int) -> int: ...
    def finished_count(self) -> int: ...


async def start(**client_kwargs):
    server = ClamServer()
    address = await server.start(f"memory://timeouts-{next(_ids)}")
    client = await ClamClient.connect(address, **client_kwargs)
    await client.load_module("slow", SLOW_SOURCE)
    slow = await client.create(Slow)
    return server, client, slow


class TestCallTimeouts:
    @async_test
    async def test_fast_call_unaffected(self):
        server, client, slow = await start(call_timeout=1.0)
        assert await slow.nap(1) == 1
        await client.close()
        await server.shutdown()

    @async_test
    async def test_slow_call_times_out(self):
        server, client, slow = await start(call_timeout=0.02)
        with pytest.raises(CallTimeoutError, match="nap"):
            await slow.nap(500)
        await client.close()
        await server.shutdown()

    @async_test
    async def test_connection_survives_timeout_and_deadline_aborts_work(self):
        """The channel stays coherent; the server aborts the expired nap.

        The call timeout travels as a wire deadline, so the work nobody
        is waiting for is cancelled server-side instead of finishing
        into the void.
        """
        server, client, slow = await start(call_timeout=0.02)
        with pytest.raises(CallTimeoutError):
            await slow.nap(60)
        await asyncio.sleep(0.1)  # let any orphan reply arrive
        assert await slow.nap(1) == 1
        # The timed-out call was aborted by its propagated deadline.
        assert await slow.finished_count() == 1
        await client.close()
        await server.shutdown()

    @async_test
    async def test_no_timeout_by_default(self):
        server, client, slow = await start()
        assert await slow.nap(30) == 30
        await client.close()
        await server.shutdown()


class TestUpcallTimeouts:
    HANG_SOURCE = '''
from typing import Callable

from repro.stubs import RemoteInterface


class Hanger(RemoteInterface):
    def __init__(self):
        self.proc = None

    def register(self, proc: Callable[[int], int]) -> bool:
        self.proc = proc
        return True

    async def call_out(self, value: int) -> int:
        return await self.proc(value)
'''

    class Hanger(RemoteInterface):
        def register(self, proc) -> bool: ...
        def call_out(self, value: int) -> int: ...

    from typing import Callable as _Callable

    Hanger.register.__annotations__["proc"] = _Callable[[int], int]

    @async_test
    async def test_hung_client_handler_releases_server_task(self):
        from repro import RemoteError
        from repro.errors import UpcallError

        server = ClamServer(upcall_timeout=0.05)
        address = await server.start(f"memory://timeouts-{next(_ids)}")
        client = await ClamClient.connect(address)
        await client.load_module("hanger", self.HANG_SOURCE)
        hanger = await client.create(self.Hanger)

        async def stuck(value):
            await asyncio.sleep(30)
            return value

        await hanger.register(stuck)
        with pytest.raises(RemoteError) as info:
            await hanger.call_out(1)
        assert info.value.remote_type == UpcallError.__name__
        assert "did not complete" in info.value.remote_message
        await client.close()
        await server.shutdown()

    @async_test
    async def test_fast_handler_unaffected_and_late_reply_dropped(self):
        server = ClamServer(upcall_timeout=0.05)
        address = await server.start(f"memory://timeouts-{next(_ids)}")
        client = await ClamClient.connect(address)
        await client.load_module("hanger", self.HANG_SOURCE)
        hanger = await client.create(self.Hanger)

        async def mixed(value):
            if value == 99:
                await asyncio.sleep(0.2)  # will time out
            return value * 2

        await hanger.register(mixed)
        assert await hanger.call_out(3) == 6
        from repro import RemoteError

        with pytest.raises(RemoteError):
            await hanger.call_out(99)
        await asyncio.sleep(0.3)  # the late reply arrives and is dropped
        assert await hanger.call_out(4) == 8  # session still coherent
        await client.close()
        await server.shutdown()


class TestServerStats:
    @async_test
    async def test_counters_populate(self):
        server, client, slow = await start()
        await slow.nap(1)
        stats = await client.server_stats()
        assert stats["sessions"] == 1
        assert stats["modules_loaded"] == 1
        assert stats["classes_loaded"] == 1
        assert stats["objects_exported"] == 1
        assert stats["calls_executed"] >= 3  # load, create, nap, stats
        assert stats["fault_records"] == 0
        await client.close()
        await server.shutdown()

    @async_test
    async def test_upcall_counter(self):
        from typing import Callable

        WATCH = '''
from typing import Callable

from repro.stubs import RemoteInterface


class Watch(RemoteInterface):
    def __init__(self):
        self.proc = None

    def register(self, proc: Callable[[int], None]) -> bool:
        self.proc = proc
        return True

    async def fire(self, value: int) -> bool:
        await self.proc(value)
        return True
'''

        class Watch(RemoteInterface):
            def register(self, proc: Callable[[int], None]) -> bool: ...
            def fire(self, value: int) -> bool: ...

        server = ClamServer()
        address = await server.start(f"memory://timeouts-{next(_ids)}")
        client = await ClamClient.connect(address)
        await client.load_module("watch", WATCH)
        watch = await client.create(Watch)
        await watch.register(lambda v: None)
        await watch.fire(1)
        await watch.fire(2)
        stats = await client.server_stats()
        assert stats["upcalls_sent"] == 2
        await client.close()
        await server.shutdown()

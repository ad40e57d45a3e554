"""Failure injection: the stack under hostile and unlucky conditions.

A reliable-channel system's interesting behaviour is at the edges:
peers that vanish mid-call, garbage on the wire, wrong protocol
versions, upcalls to dead clients.  Each test pins down that the
failure is *contained* — surfaced as the right ClamError subclass on
the right side, without wedging the server or other clients.
"""

import asyncio
import itertools
from typing import Callable

import pytest

from repro import (
    ClamClient,
    ClamServer,
    ConnectionClosedError,
    RemoteError,
    RemoteInterface,
)
from repro.errors import ProtocolError
from repro.ipc import MessageChannel, dial, serve
from repro.wire import ChannelRole, HelloMessage
from tests.support import async_test, eventually

_ids = itertools.count(1)

SERVICE_SOURCE = '''
import asyncio
from typing import Callable

from repro.stubs import RemoteInterface


class Service(RemoteInterface):
    def __init__(self):
        self.proc = None

    def echo(self, text: str) -> str:
        return text

    async def slow(self, delay_ms: int) -> int:
        await asyncio.sleep(delay_ms / 1000)
        return delay_ms

    def register(self, proc: Callable[[int], int]) -> bool:
        self.proc = proc
        return True

    def fire_later(self, value: int) -> bool:
        asyncio.get_event_loop().create_task(self._fire(value))
        return True

    async def _fire(self, value: int) -> None:
        await self.proc(value)
'''


class Service(RemoteInterface):
    def echo(self, text: str) -> str: ...
    def slow(self, delay_ms: int) -> int: ...
    def register(self, proc: Callable[[int], int]) -> bool: ...
    def fire_later(self, value: int) -> bool: ...


async def start(**kwargs):
    server = ClamServer(**kwargs)
    address = await server.start(f"memory://failures-{next(_ids)}")
    return server, address


class TestServerVanishes:
    @async_test
    async def test_shutdown_fails_pending_call_cleanly(self):
        server, address = await start()
        client = await ClamClient.connect(address)
        await client.load_module("service", SERVICE_SOURCE)
        service = await client.create(Service)

        async def doomed():
            return await service.slow(5000)

        pending = asyncio.get_running_loop().create_task(doomed())
        await asyncio.sleep(0.01)
        await server.shutdown()
        with pytest.raises(ConnectionClosedError):
            await asyncio.wait_for(pending, timeout=5)
        await client.close()

    @async_test
    async def test_client_usable_error_after_shutdown(self):
        server, address = await start()
        client = await ClamClient.connect(address)
        await server.shutdown()
        with pytest.raises(ConnectionClosedError):
            for _ in range(3):  # allow the close to propagate
                await client.ping()
                await asyncio.sleep(0.01)
        await client.close()


class TestClientVanishes:
    @async_test
    async def test_other_clients_unaffected(self):
        server, address = await start()
        victim = await ClamClient.connect(address)
        survivor = await ClamClient.connect(address)
        await victim.load_module("service", SERVICE_SOURCE)
        # Hard-close the victim's connections without protocol goodbyes.
        await victim.rpc.close()
        await eventually(lambda: server.session_count == 1)
        assert isinstance(await survivor.ping(), int)
        await survivor.close()
        await server.shutdown()
        await victim.close()

    @async_test
    async def test_upcall_to_dead_client_contained(self):
        """A server task upcalling a vanished client gets an error;
        the server survives."""
        server, address = await start()
        client = await ClamClient.connect(address)
        other = await ClamClient.connect(address)
        await client.load_module("service", SERVICE_SOURCE)
        service = await client.create(Service)
        await service.register(lambda v: v)
        await client.close()  # vanish before the upcall fires

        # Fire from a server task; the RUC raises inside that task.
        proxy_for_other = await other.create(Service)
        await proxy_for_other.echo("still alive")  # server still serves
        assert isinstance(await other.ping(), int)
        await other.close()
        await server.shutdown()


class TestHostileBytes:
    @async_test
    async def test_garbage_first_frame_drops_connection_only(self):
        server, address = await start()
        conn = await dial(address)
        await conn.send(b"\xde\xad\xbe\xef not a message")
        with pytest.raises(ConnectionClosedError):
            for _ in range(3):
                await conn.recv()
        # The server still accepts proper clients.
        client = await ClamClient.connect(address)
        assert isinstance(await client.ping(), int)
        await client.close()
        await server.shutdown()

    @async_test
    async def test_non_hello_first_message_rejected(self):
        from repro.wire import ReplyMessage

        server, address = await start()
        channel = MessageChannel(await dial(address))
        await channel.send(ReplyMessage(serial=1, results=b""))
        with pytest.raises(ConnectionClosedError):
            for _ in range(3):
                await channel.recv()
        await server.shutdown()

    @pytest.mark.parametrize("version", [0, 4])
    @async_test
    async def test_protocol_version_below_minimum_rejected(self, version):
        """Peers older than MIN_PROTOCOL_VERSION cannot negotiate;
        newer peers are fine (the wire downgrades to our version)."""
        server, address = await start()
        channel = MessageChannel(await dial(address))
        await channel.send(
            HelloMessage(role=ChannelRole.RPC, protocol_version=version)
        )
        with pytest.raises(ConnectionClosedError):
            for _ in range(3):
                await channel.recv()
        assert server.session_count == 0
        await server.shutdown()

    @async_test
    async def test_client_rejects_hello_ack_below_minimum(self):
        """The client checks the server's ack as the server checks the
        client's HELLO: a v4 answer fails the connect and closes the
        channel."""
        closed = asyncio.Event()

        async def old_server(conn):
            channel = MessageChannel(conn)
            await channel.recv()
            await channel.send(HelloMessage(
                role=ChannelRole.RPC, session="old-session", protocol_version=4
            ))
            try:
                await channel.recv()
            except ConnectionClosedError:
                closed.set()

        listener = await serve(f"memory://old-server-{next(_ids)}", old_server)
        try:
            with pytest.raises(ProtocolError, match="protocol 4"):
                await ClamClient.connect(listener.address)
            await asyncio.wait_for(closed.wait(), 5)
        finally:
            await listener.close()

    @async_test
    async def test_upcall_channel_for_unknown_session_rejected(self):
        server, address = await start()
        channel = MessageChannel(await dial(address))
        await channel.send(
            HelloMessage(role=ChannelRole.UPCALL, session="forged-token")
        )
        with pytest.raises(ConnectionClosedError):
            for _ in range(3):
                await channel.recv()
        await server.shutdown()

    @async_test
    async def test_call_with_garbage_args_survives(self):
        """Unbundling failure inside a sync call surfaces as a
        RemoteError; the session keeps going."""
        server, address = await start()
        client = await ClamClient.connect(address)
        await client.load_module("service", SERVICE_SOURCE)
        service = await client.create(Service)
        handle = service._clam_handle_
        with pytest.raises(RemoteError):
            await client.rpc.call(handle, "echo", b"\xff\xff")
        assert await service.echo("ok") == "ok"
        await client.close()
        await server.shutdown()

    @async_test
    async def test_call_to_unknown_method_survives(self):
        server, address = await start()
        client = await ClamClient.connect(address)
        await client.load_module("service", SERVICE_SOURCE)
        service = await client.create(Service)
        with pytest.raises(RemoteError) as info:
            await client.rpc.call(service._clam_handle_, "no_such_method", b"")
        assert info.value.remote_type == "BadCallError"
        assert await service.echo("ok") == "ok"
        await client.close()
        await server.shutdown()


class TestUpcallEdgeCases:
    @async_test
    async def test_upcall_for_unregistered_id_reports_error(self):
        """A stale RUC id (client restarted its tables) produces an
        upcall exception, not a hang."""
        server, address = await start()
        client = await ClamClient.connect(address)
        await client.load_module("service", SERVICE_SOURCE)
        service = await client.create(Service)
        await service.register(lambda v: v)
        # Sabotage: clear the client's callback table.
        client.callbacks._entries.clear()
        await service.fire_later(1)
        await eventually(
            lambda: client._upcall_service.upcalls_failed == 1
        )
        assert isinstance(await client.ping(), int)
        await client.close()
        await server.shutdown()

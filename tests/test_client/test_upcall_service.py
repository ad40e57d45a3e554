"""Unit tests for the client's upcall task (paper §4.4)."""

import asyncio
from typing import Callable

import pytest

from repro.bundlers import BundlerRegistry
from repro.bundlers.auto import structural_resolver
from repro.client.upcall_task import UpcallService
from repro.core import CallbackTable, UpcallSignature
from repro.flow import message_cost
from repro.ipc import MessageChannel
from repro.ipc.memory import MemoryConnection
from repro.wire import (
    CreditMessage,
    ReplyMessage,
    UpcallExceptionMessage,
    UpcallMessage,
    UpcallReplyMessage,
)
from tests.support import async_test, eventually


def build(max_active=1):
    registry = BundlerRegistry()
    registry.add_resolver(structural_resolver)
    server_side, client_side = MemoryConnection.pipe()
    server_channel = MessageChannel(server_side)
    client_channel = MessageChannel(client_side)
    callbacks = CallbackTable()
    signature = UpcallSignature.from_annotation(Callable[[int], int], registry)
    service = UpcallService(client_channel, callbacks, max_active=max_active)
    return server_channel, callbacks, signature, service


class TestSequentialService:
    @async_test
    async def test_handles_and_replies(self):
        server_channel, callbacks, signature, service = build()
        callback_id = callbacks.register(lambda x: x + 1, signature)
        task = asyncio.get_running_loop().create_task(service.run())

        await server_channel.send(
            UpcallMessage(serial=1, ruc_id=callback_id,
                          args=signature.bundle_args((41,)))
        )
        reply = await server_channel.recv()
        assert isinstance(reply, UpcallReplyMessage)
        assert signature.unbundle_result(reply.results) == 42
        assert service.upcalls_handled == 1
        await service.close()
        await task

    @async_test
    async def test_handler_exception_becomes_upcall_exception(self):
        server_channel, callbacks, signature, service = build()

        def bad(x):
            raise LookupError("missing window")

        callback_id = callbacks.register(bad, signature)
        task = asyncio.get_running_loop().create_task(service.run())
        await server_channel.send(
            UpcallMessage(serial=9, ruc_id=callback_id,
                          args=signature.bundle_args((1,)))
        )
        reply = await server_channel.recv()
        assert isinstance(reply, UpcallExceptionMessage)
        assert reply.serial == 9
        assert reply.remote_type == "LookupError"
        assert service.upcalls_failed == 1
        await service.close()
        await task

    @async_test
    async def test_unknown_callback_id(self):
        server_channel, callbacks, signature, service = build()
        task = asyncio.get_running_loop().create_task(service.run())
        await server_channel.send(UpcallMessage(serial=2, ruc_id=404, args=b""))
        reply = await server_channel.recv()
        assert isinstance(reply, UpcallExceptionMessage)
        assert "404" in reply.message
        await service.close()
        await task

    @async_test
    async def test_wrong_message_type_stops_service(self):
        server_channel, callbacks, signature, service = build()
        task = asyncio.get_running_loop().create_task(service.run())
        await server_channel.send(ReplyMessage(serial=1, results=b""))
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            await task

    @async_test
    async def test_close_ends_run(self):
        server_channel, callbacks, signature, service = build()
        task = asyncio.get_running_loop().create_task(service.run())
        await asyncio.sleep(0.005)
        await service.close()
        await asyncio.wait_for(task, timeout=5)  # clean exit

    @async_test
    async def test_no_reply_requested(self):
        server_channel, callbacks, signature, service = build()
        seen = []
        callback_id = callbacks.register(lambda x: seen.append(x) or 0, signature)
        task = asyncio.get_running_loop().create_task(service.run())
        await server_channel.send(
            UpcallMessage(serial=3, ruc_id=callback_id,
                          args=signature.bundle_args((5,)), expects_reply=False)
        )
        await eventually(lambda: seen == [5])
        assert service.upcalls_handled == 1
        await service.close()
        await task


class TestUpcallCredits:
    @async_test
    async def test_probe_holds_the_backlog_instead_of_writing_it_off(self):
        """Frames read into the sequential backlog are held, not lost.

        Written off at the probe, they would be counted again when they
        drain, inflating the grant past what the producer ever used.
        """
        server_channel, callbacks, signature, service = build()
        window_msgs, window_bytes = 8, 1 << 16
        service.enable_credits(window_msgs=window_msgs, window_bytes=window_bytes)
        release = asyncio.Event()

        async def blocked(x):
            await release.wait()
            return x

        callback_id = callbacks.register(blocked, signature)
        task = asyncio.get_running_loop().create_task(service.run())
        await service.announce_credits()
        grants = [await server_channel.recv()]

        frames = [
            UpcallMessage(serial=serial, ruc_id=callback_id,
                          args=signature.bundle_args((serial,)),
                          expects_reply=False)
            for serial in range(1, 5)
        ]
        used_msgs = len(frames)
        used_bytes = sum(message_cost(frame.args) for frame in frames)
        for frame in frames:
            await server_channel.send(frame)
        await server_channel.send(
            CreditMessage(msg_credit=used_msgs, byte_credit=used_bytes, probe=True)
        )
        grants.append(await asyncio.wait_for(server_channel.recv(), 5))
        ledger = service._ledger
        assert ledger.drained_msgs == 0

        release.set()
        await eventually(lambda: service.upcalls_handled == used_msgs)
        # Half the window drained: the next grant goes out.
        grants.append(await asyncio.wait_for(server_channel.recv(), 5))
        assert all(isinstance(grant, CreditMessage) for grant in grants)
        assert ledger.drained_msgs == used_msgs
        assert max(g.msg_credit for g in grants) <= used_msgs + window_msgs
        # A handler already running at the probe has its bytes written
        # off early, so the byte grant may run one frame ahead.
        one_frame = max(message_cost(frame.args) for frame in frames)
        assert max(g.byte_credit for g in grants) <= (
            used_bytes + window_bytes + one_frame
        )
        await service.close()
        await task


class TestConcurrentService:
    @async_test
    async def test_concurrency_tracked(self):
        server_channel, callbacks, signature, service = build(max_active=4)

        async def slow(x):
            await asyncio.sleep(0.01)
            return x

        callback_id = callbacks.register(slow, signature)
        task = asyncio.get_running_loop().create_task(service.run())
        for serial in range(1, 5):
            await server_channel.send(
                UpcallMessage(serial=serial, ruc_id=callback_id,
                              args=signature.bundle_args((serial,)))
            )
        replies = [await server_channel.recv() for _ in range(4)]
        assert {r.serial for r in replies} == {1, 2, 3, 4}
        assert 2 <= service.max_concurrency_seen <= 4
        await service.close()
        await task

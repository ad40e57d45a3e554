"""Typed message channel over a raw connection.

A :class:`MessageChannel` sends and receives the wire messages of
:mod:`repro.wire` over any :class:`~repro.ipc.transport.Connection`.
It is the unit the paper counts when it says each client has "at most
two channels of communication" (§4.4): one RPC channel, one upcall
channel, each its own stream.
"""

from __future__ import annotations

from repro.ipc.transport import Connection
from repro.wire import Message, decode_message, encode_message


class MessageChannel:
    """Frame pipe specialized to typed wire messages.

    Every frame, HELLO included, is encoded and decoded in the one wire
    layout; the HELLO exchange only checks that the peer speaks it.
    """

    def __init__(self, connection: Connection):
        self._connection = connection

    async def send(self, message: Message) -> None:
        await self._connection.send(encode_message(message))

    async def send_many(self, messages) -> None:
        """Send several messages in one coalesced connection write."""
        await self._connection.send_many(
            [encode_message(message) for message in messages]
        )

    async def send_encoded(self, frames) -> None:
        """Send pre-encoded frame payloads in one coalesced write.

        The encode-once/write-N fast path: the caller already holds
        frame bytes (a patched upcall template, see
        :func:`repro.wire.patch_upcall_frame`) and this skips straight
        to the transport's single write+drain.
        """
        await self._connection.send_many(frames)

    async def recv(self) -> Message:
        return decode_message(await self._connection.recv())

    async def close(self) -> None:
        await self._connection.close()

    @property
    def connection(self) -> Connection:
        return self._connection

    @property
    def peer(self) -> str:
        return self._connection.peer

    @property
    def closed(self) -> bool:
        return self._connection.closed

    async def __aenter__(self) -> "MessageChannel":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

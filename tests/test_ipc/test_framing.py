"""Length-prefixed framing over a real stream (``repro.ipc.framing``).

The transports wrap these helpers, but only a coalesced batch flush
reaches :func:`write_frames`; here both writers and the reader run over
a connected pair of ``AF_UNIX`` stream sockets, so the bytes checked
are the bytes the kernel carried.
"""

import asyncio
import socket

import pytest

from repro.errors import ConnectionClosedError, FramingError
from repro.ipc import framing
from repro.ipc.framing import read_frame, write_frame, write_frames
from tests.support import async_test

PAYLOADS = [bytes([i]) * (i * 37 % 200) for i in range(64)]


async def unix_pair():
    """(reader, writer) at each end of a connected unix socket pair."""
    left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    a = await asyncio.open_unix_connection(sock=left)
    b = await asyncio.open_unix_connection(sock=right)
    return a, b


async def close(*ends):
    for _reader, writer in ends:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def carried(write) -> bytes:
    """Every byte ``write(writer)`` puts on the stream, read at the far end."""
    near, (reader, far) = await unix_pair()
    try:
        await write(near[1])
        await close(near)
        return await reader.read()
    finally:
        await close((reader, far))


@async_test
async def test_write_frames_carries_the_bytes_of_one_write_frame_each():
    async def one_by_one(writer):
        for payload in PAYLOADS:
            await write_frame(writer, payload)

    async def coalesced(writer):
        await write_frames(writer, PAYLOADS)

    expected = b"".join(len(p).to_bytes(4, "big") + p for p in PAYLOADS)
    assert await carried(one_by_one) == expected
    assert await carried(coalesced) == expected


@async_test
async def test_frames_read_back_in_order():
    near, far = await unix_pair()
    try:
        await write_frames(near[1], PAYLOADS)
        assert [await read_frame(far[0]) for _ in PAYLOADS] == PAYLOADS
    finally:
        await close(near, far)


@pytest.mark.parametrize("coalesced", [False, True])
@async_test
async def test_oversize_payload_is_refused_before_any_byte_is_written(coalesced, monkeypatch):
    monkeypatch.setattr(framing, "MAX_FRAME_SIZE", 1024)

    async def write(writer):
        with pytest.raises(FramingError, match="exceeds max 1024"):
            if coalesced:
                await write_frames(writer, [b"small", b"x" * 1025])
            else:
                await write_frame(writer, b"x" * 1025)

    assert await carried(write) == b""


@pytest.mark.parametrize(
    "sent,error",
    [
        (b"\x00\x00", FramingError),                          # EOF inside the header
        (b"\x00\x00\x00\x08abc", FramingError),               # EOF inside the body
        (b"", ConnectionClosedError),                         # clean EOF
    ],
)
@async_test
async def test_eof_mid_frame_is_a_framing_error_and_clean_eof_is_a_close(sent, error):
    near, far = await unix_pair()
    try:
        near[1].write(sent)
        await near[1].drain()
        await close(near)
        with pytest.raises(error):
            await read_frame(far[0])
    finally:
        await close(far)

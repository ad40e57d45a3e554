"""Golden wire bytes: the encoded form of every message type is pinned.

These hex strings are the protocol's one layout (version 5) and must
never drift — a mismatch means the marshalling fast path (or any later
change) broke compatibility with running peers.  The compiled codecs
cover UPCALL, UPCALL_REPLY, REPLY and CREDIT; the rest take the
interpreted walk, so both paths are pinned here.

Each pin is keyed by message name and the protocol version it was
recorded at.  Pins recorded before version 5 are kept only where
version 5 encodes the message to the same bytes; the messages whose
layout version 5 changed are pinned as recorded at 5.
"""

from __future__ import annotations

import pytest

from repro.wire import (
    BatchMessage,
    CallMessage,
    ChannelRole,
    CreditMessage,
    ExceptionMessage,
    HelloMessage,
    ReplyMessage,
    UpcallExceptionMessage,
    UpcallMessage,
    UpcallReplyMessage,
    decode_message,
    encode_message,
)


def _messages():
    return {
        # HELLO's layout is the same at every version; this one announces
        # version 2, which the gate refuses after reading it.
        "hello": HelloMessage(role=ChannelRole.UPCALL, session="sess-1",
                              protocol_version=2),
        # Unset call fields still encode: they are positional, not
        # optional, so an untimed unfenced call carries zeros.
        "call_v2": CallMessage(serial=7, oid=3, tag=9, method="move",
                               args=b"\x01\x02\x03", expects_reply=True,
                               trace_id="t-abc", parent_span=77),
        "call_v3": CallMessage(serial=9, oid=3, tag=9, method="move",
                               args=b"\x01\x02\x03", expects_reply=True,
                               trace_id="t-abc", parent_span=77,
                               deadline_ms=1500),
        "call_v4": CallMessage(serial=10, oid=3, tag=9, method="move",
                               args=b"\x01\x02\x03", expects_reply=True,
                               trace_id="t-abc", parent_span=77,
                               deadline_ms=1500, priority=1),
        "call_v5": CallMessage(serial=11, oid=3, tag=9, method="move",
                               args=b"\x01\x02\x03", expects_reply=True,
                               trace_id="t-abc", parent_span=77,
                               deadline_ms=1500, priority=1,
                               fence_epoch=4, fence_counter=129),
        "reply": ReplyMessage(serial=7, results=b"RESULT"),
        "exc": ExceptionMessage(serial=8, remote_type="ValueError",
                                message="boom", traceback="tb"),
        "batch": BatchMessage(calls=(
            CallMessage(serial=1, oid=2, tag=3, method="a", args=b"x",
                        expects_reply=False),
            CallMessage(serial=2, oid=2, tag=3, method="bb", args=b"yz",
                        expects_reply=False, trace_id="tid", parent_span=5),
        )),
        "upcall": UpcallMessage(serial=4, ruc_id=11, args=b"ARGS",
                                expects_reply=True, trace_id="up",
                                parent_span=6),
        "upcall_reply": UpcallReplyMessage(serial=4, results=b"OK"),
        "upcall_exc": UpcallExceptionMessage(serial=4, remote_type="E",
                                             message="m", traceback=""),
        "credit": CreditMessage(msg_credit=256, byte_credit=4 << 20),
        "credit_probe": CreditMessage(msg_credit=12, byte_credit=900,
                                      probe=True),
    }


GOLDEN = {
    ("hello", 1): "000000010000000200000006736573732d31000000000002",
    ("hello", 2): "000000010000000200000006736573732d31000000000002",
    ("call_v2", 5): "000000020000000700000000000000030000000000000009"
                    "000000046d6f766500000003010203000000000100000005"
                    "742d616263000000000000000000004d0000000000000000"
                    "00000000000000000000000000000000",
    ("call_v3", 5): "000000020000000900000000000000030000000000000009"
                    "000000046d6f766500000003010203000000000100000005"
                    "742d616263000000000000000000004d000005dc00000000"
                    "00000000000000000000000000000000",
    ("call_v4", 5): "000000020000000a00000000000000030000000000000009"
                    "000000046d6f766500000003010203000000000100000005"
                    "742d616263000000000000000000004d000005dc00000001"
                    "00000000000000000000000000000000",
    ("call_v5", 5): "000000020000000b00000000000000030000000000000009"
                    "000000046d6f766500000003010203000000000100000005"
                    "742d616263000000000000000000004d000005dc00000001"
                    "00000000000000040000000000000081",
    ("reply", 1): "000000030000000700000006524553554c540000",
    ("reply", 2): "000000030000000700000006524553554c540000",
    ("exc", 1): "00000004000000080000000a56616c75654572726f72000000000004"
                "626f6f6d0000000274620000",
    ("exc", 2): "00000004000000080000000a56616c75654572726f72000000000004"
                "626f6f6d0000000274620000",
    ("batch", 5): "000000050000000200000001000000000000000200000000"
                  "000000030000000161000000000000017800000000000000"
                  "000000000000000000000000000000000000000000000000"
                  "000000000000000000000000000000020000000000000002"
                  "0000000000000003000000026262000000000002797a0000"
                  "000000000000000374696400000000000000000500000000"
                  "0000000000000000000000000000000000000000",
    ("upcall", 2): "0000000600000004000000000000000b0000000441524753000000"
                   "0100000002757000000000000000000006",
    ("upcall_reply", 1): "0000000700000004000000024f4b0000",
    ("upcall_reply", 2): "0000000700000004000000024f4b0000",
    ("upcall_exc", 1): "00000008000000040000000145000000000000016d00000000000000",
    ("upcall_exc", 2): "00000008000000040000000145000000000000016d00000000000000",
    ("credit", 1): "000000090000000000000100000000000040000000000000",
    ("credit", 4): "000000090000000000000100000000000040000000000000",
    ("credit_probe", 4): "00000009000000000000000c000000000000038400000001",
}


@pytest.mark.parametrize("name,recorded_at", sorted(GOLDEN))
def test_encoding_matches_golden_bytes(name, recorded_at):
    assert encode_message(_messages()[name]).hex() == GOLDEN[(name, recorded_at)]


@pytest.mark.parametrize("name,recorded_at", sorted(GOLDEN))
def test_golden_bytes_decode_to_the_message(name, recorded_at):
    data = bytes.fromhex(GOLDEN[(name, recorded_at)])
    assert decode_message(data) == _messages()[name]

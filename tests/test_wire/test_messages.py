"""Tests for the typed wire messages (paper §3.4, §4.4)."""

import pytest

from repro.errors import ProtocolError
from repro.wire import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    BatchMessage,
    CallMessage,
    ChannelRole,
    ExceptionMessage,
    HelloMessage,
    ReplyMessage,
    UpcallExceptionMessage,
    UpcallMessage,
    UpcallReplyMessage,
    decode_message,
    encode_message,
    negotiate_version,
)


def roundtrip(message):
    return decode_message(encode_message(message))


class TestRoundtrips:
    def test_hello(self):
        msg = HelloMessage(role=ChannelRole.UPCALL, session="tok-123")
        out = roundtrip(msg)
        assert out == msg
        assert out.protocol_version == PROTOCOL_VERSION

    def test_call(self):
        msg = CallMessage(serial=7, oid=42, tag=0xDEAD, method="draw_point",
                          args=b"\x00\x00\x00\x01", expects_reply=True)
        assert roundtrip(msg) == msg

    def test_call_async(self):
        msg = CallMessage(serial=8, oid=1, tag=2, method="move",
                          args=b"", expects_reply=False)
        assert roundtrip(msg) == msg

    def test_reply(self):
        msg = ReplyMessage(serial=7, results=b"\x01\x02\x03\x04")
        assert roundtrip(msg) == msg

    def test_exception(self):
        msg = ExceptionMessage(serial=7, remote_type="ValueError",
                               message="bad point", traceback="Traceback ...")
        assert roundtrip(msg) == msg

    def test_batch(self):
        calls = tuple(
            CallMessage(serial=i, oid=1, tag=1, method="m", args=b"", expects_reply=False)
            for i in range(5)
        )
        msg = BatchMessage(calls=calls)
        out = roundtrip(msg)
        assert out.calls == calls

    def test_empty_batch(self):
        assert roundtrip(BatchMessage()).calls == ()

    def test_upcall(self):
        msg = UpcallMessage(serial=3, ruc_id=99, args=b"xy", expects_reply=True)
        assert roundtrip(msg) == msg

    def test_upcall_reply(self):
        msg = UpcallReplyMessage(serial=3, results=b"")
        assert roundtrip(msg) == msg

    def test_upcall_exception(self):
        msg = UpcallExceptionMessage(serial=3, remote_type="KeyError", message="w1")
        assert roundtrip(msg) == msg


class TestValidation:
    def test_batch_rejects_sync_calls(self):
        sync_call = CallMessage(serial=1, oid=1, tag=1, method="get",
                                args=b"", expects_reply=True)
        with pytest.raises(ProtocolError):
            BatchMessage(calls=(sync_call,))

    def test_unknown_type_code(self):
        from repro.xdr import XdrStream

        enc = XdrStream.encoder()
        enc.xuint(200)
        with pytest.raises(ProtocolError):
            decode_message(enc.getvalue())

    def test_trailing_bytes_rejected(self):
        data = encode_message(ReplyMessage(serial=1, results=b"")) + b"\x00\x00\x00\x00"
        with pytest.raises(ProtocolError):
            decode_message(data)

    def test_truncated_body_raises(self):
        from repro.errors import XdrError

        data = encode_message(CallMessage(serial=1, oid=1, tag=1, method="m",
                                          args=b"abc", expects_reply=True))
        with pytest.raises(XdrError):
            decode_message(data[:-6])

    def test_hello_bad_role_rejected(self):
        from repro.errors import XdrError
        from repro.xdr import XdrStream

        enc = XdrStream.encoder()
        enc.xuint(1)   # HELLO type code
        enc.xint(9)    # invalid role
        enc.xstring("")
        enc.xuint(1)
        with pytest.raises(XdrError):
            decode_message(enc.getvalue())


class TestDistinctness:
    def test_all_type_codes_distinct(self):
        messages = [
            HelloMessage(role=ChannelRole.RPC),
            CallMessage(serial=0, oid=0, tag=0, method="", args=b"", expects_reply=True),
            ReplyMessage(serial=0, results=b""),
            ExceptionMessage(serial=0, remote_type="", message=""),
            BatchMessage(),
            UpcallMessage(serial=0, ruc_id=0, args=b""),
            UpcallReplyMessage(serial=0, results=b""),
            UpcallExceptionMessage(serial=0, remote_type="", message=""),
        ]
        codes = [m.TYPE_CODE for m in messages]
        assert len(set(codes)) == len(codes)
        for msg in messages:
            assert type(roundtrip(msg)) is type(msg)


class TestVersioning:
    """One wire version; HELLO carries it and the gate checks it."""

    def test_one_wire_version(self):
        assert MIN_PROTOCOL_VERSION == PROTOCOL_VERSION == 5

    def test_negotiate_takes_the_min(self):
        assert negotiate_version(PROTOCOL_VERSION) == PROTOCOL_VERSION
        assert negotiate_version(99) == PROTOCOL_VERSION

    def test_negotiate_rejects_prehistoric_peers(self):
        for version in (0, 1, MIN_PROTOCOL_VERSION - 1):
            with pytest.raises(ProtocolError):
                negotiate_version(version)

    def test_call_trace_context_roundtrips(self):
        msg = CallMessage(serial=1, oid=2, tag=3, method="poke", args=b"x",
                          expects_reply=True, trace_id="ab" * 8,
                          parent_span=0x1234_5678_9ABC)
        out = decode_message(encode_message(msg))
        assert out.trace_id == msg.trace_id
        assert out.parent_span == msg.parent_span

    def test_hello_layout_is_version_independent(self):
        """An older peer's HELLO still decodes, so the gate can read
        its version and refuse it."""
        msg = HelloMessage(role=ChannelRole.RPC, session="tok",
                           protocol_version=2)
        out = decode_message(encode_message(msg))
        assert out == msg
        with pytest.raises(ProtocolError):
            negotiate_version(out.protocol_version)

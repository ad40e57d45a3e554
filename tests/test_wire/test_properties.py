"""Property tests: every wire message round-trips for arbitrary content,
and the compiled delivery-path codecs are indistinguishable from the
interpreted walk they shadow."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.wire import (
    BatchMessage,
    CallMessage,
    ChannelRole,
    CreditMessage,
    ExceptionMessage,
    HelloMessage,
    Message,
    ReplyMessage,
    UpcallExceptionMessage,
    UpcallMessage,
    UpcallReplyMessage,
    decode_message,
    encode_message,
    encode_upcall_template,
)
from repro.wire import messages as wire_messages
from repro.wire.messages import (
    decode_message_interpreted,
    encode_message_interpreted,
)
from repro.xdr.stream import DEFAULT_MAX_LENGTH

serials = st.integers(min_value=0, max_value=2**32 - 1)
oids = st.integers(min_value=0, max_value=2**64 - 1)
payloads = st.binary(max_size=256)
texts = st.text(max_size=128)

calls = st.builds(
    CallMessage,
    serial=serials,
    oid=oids,
    tag=oids,
    method=texts,
    args=payloads,
    expects_reply=st.booleans(),
)

async_calls = st.builds(
    CallMessage,
    serial=serials,
    oid=oids,
    tag=oids,
    method=texts,
    args=payloads,
    expects_reply=st.just(False),
)

messages = st.one_of(
    st.builds(
        HelloMessage,
        role=st.sampled_from(list(ChannelRole)),
        session=texts,
    ),
    calls,
    st.builds(ReplyMessage, serial=serials, results=payloads),
    st.builds(
        ExceptionMessage,
        serial=serials,
        remote_type=texts,
        message=texts,
        traceback=texts,
    ),
    st.builds(BatchMessage, calls=st.lists(async_calls, max_size=10).map(tuple)),
    st.builds(
        UpcallMessage,
        serial=serials,
        ruc_id=oids,
        args=payloads,
        expects_reply=st.booleans(),
    ),
    st.builds(UpcallReplyMessage, serial=serials, results=payloads),
    st.builds(
        UpcallExceptionMessage,
        serial=serials,
        remote_type=texts,
        message=texts,
        traceback=texts,
    ),
)


@given(messages)
def test_any_message_roundtrips(message):
    assert decode_message(encode_message(message)) == message


@given(st.lists(messages, max_size=8))
def test_message_streams_are_self_delimiting(stream):
    """Concatenated frames decode independently — the property the
    shared-stream (single-channel) mode relies on."""
    frames = [encode_message(m) for m in stream]
    decoded = [decode_message(f) for f in frames]
    assert decoded == stream


@given(messages, st.integers(min_value=1, max_value=16))
def test_truncation_never_decodes_silently(message, cut):
    """A truncated frame raises; it never yields a wrong message."""
    from repro.errors import ClamError

    data = encode_message(message)
    if cut >= len(data):
        return
    truncated = data[:-cut]
    try:
        decoded = decode_message(truncated)
    except ClamError:
        return
    # Rarely a truncation can still parse (e.g. dropping trailing
    # bytes of an opaque that re-frames) — but it must not EQUAL the
    # original while being shorter.
    assert decoded != message


# -- compiled codecs against the interpreted walk -----------------------------

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1

edge_u32 = st.one_of(st.sampled_from([0, 1, U32_MAX]), serials)
edge_u64 = st.one_of(st.sampled_from([0, 1, U64_MAX]), oids)
# Empty and every padding remainder, plus arbitrary bytes.
edge_payloads = st.one_of(
    st.sampled_from([b"", b"a", b"ab", b"abc", b"abcd", b"abcde"]),
    st.binary(max_size=64),
)
trace_ids = st.one_of(
    st.sampled_from(["", "t", "trace-é", "追踪", "🙂x"]),
    st.text(max_size=24),
)

compiled_messages = st.one_of(
    st.builds(
        UpcallMessage,
        serial=edge_u32,
        ruc_id=edge_u64,
        args=edge_payloads,
        expects_reply=st.booleans(),
        trace_id=trace_ids,
        parent_span=edge_u64,
    ),
    st.builds(ReplyMessage, serial=edge_u32, results=edge_payloads),
    st.builds(UpcallReplyMessage, serial=edge_u32, results=edge_payloads),
    st.builds(
        CreditMessage,
        msg_credit=edge_u64,
        byte_credit=edge_u64,
        probe=st.booleans(),
    ),
)


def _field_types(message: Message) -> tuple:
    return tuple(type(getattr(message, f.name)) for f in dataclasses.fields(message))


def _outcome(fn, *args, **kwargs):
    """What a codec call did: its result, or its exception type and text."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    if isinstance(result, Message):
        return "decoded", result, _field_types(result)
    return "encoded", result


def _compiled_encode(message: Message) -> bytes:
    return wire_messages._COMPILED_ENCODERS[type(message)](message)


def _compiled_decode(frame: bytes) -> Message:
    code = int.from_bytes(frame[:4], "big")
    return wire_messages._COMPILED_DECODERS[code](frame)


@given(compiled_messages)
def test_compiled_codecs_match_the_walk(message):
    """The compiled codec accepts every valid message and frame, and both
    entry points give the walk's bytes and the walk's message."""
    frame = encode_message_interpreted(message)
    assert _compiled_encode(message) == frame
    assert encode_message(message) == frame
    expected = decode_message_interpreted(frame)
    for decoded in (_compiled_decode(frame), decode_message(frame)):
        assert decoded == expected
        assert _field_types(decoded) == _field_types(expected)


@given(edge_payloads, st.booleans(), trace_ids, edge_u64)
def test_compiled_upcall_template_matches_the_walk(
    args, expects_reply, trace_id, parent_span
):
    walked = encode_message_interpreted(
        UpcallMessage(serial=0, ruc_id=0, args=args, expects_reply=expects_reply,
                      trace_id=trace_id, parent_span=parent_span)
    )
    assert wire_messages._pack_upcall(
        0, 0, args, expects_reply, trace_id, parent_span
    ) == walked
    assert encode_upcall_template(
        args, expects_reply=expects_reply, trace_id=trace_id,
        parent_span=parent_span,
    ) == walked


def _put_word(frame: bytes, offset: int, value: int) -> bytes:
    return frame[:offset] + value.to_bytes(4, "big") + frame[offset + 4:]


def _put_bytes(frame: bytes, offset: int, data: bytes) -> bytes:
    return frame[:offset] + data + frame[offset + len(data):]


# [16:20) len(args)=3, [20:23) args, [23] pad, [24:28) expects_reply,
# [28:32) len(trace_id)=2, [32:34) trace_id, [34:36) pad, [36:44) parent_span
_UPCALL = encode_message_interpreted(
    UpcallMessage(serial=7, ruc_id=9, args=b"abc", trace_id="é", parent_span=3)
)
# [8:12) len(results)=3, [12:15) results, [15] pad
_REPLY = encode_message_interpreted(ReplyMessage(serial=7, results=b"abc"))
_UPCALL_REPLY = encode_message_interpreted(UpcallReplyMessage(serial=7, results=b"abc"))
# [4:12) msg_credit, [12:20) byte_credit, [20:24) probe
_CREDIT = encode_message_interpreted(
    CreditMessage(msg_credit=5, byte_credit=6, probe=True)
)
_OVERSIZE = DEFAULT_MAX_LENGTH + 1

MALFORMED = [
    ("empty", b""),
    ("type code only", _REPLY[:4]),
    ("upcall truncated in head", _UPCALL[:19]),
    ("upcall truncated", _UPCALL[:-1]),
    ("reply truncated", _REPLY[:-1]),
    ("credit truncated", _CREDIT[:-4]),
    ("upcall args padding", _put_bytes(_UPCALL, 23, b"\x01")),
    ("upcall trace padding", _put_bytes(_UPCALL, 35, b"\x01")),
    ("reply padding", _put_bytes(_REPLY, 15, b"\x01")),
    ("upcall reply padding", _put_bytes(_UPCALL_REPLY, 15, b"\xff")),
    ("upcall bool 2", _put_word(_UPCALL, 24, 2)),
    ("upcall bool -1", _put_word(_UPCALL, 24, U32_MAX)),
    ("credit bool 2", _put_word(_CREDIT, 20, 2)),
    ("upcall trailing bytes", _UPCALL + b"\x00" * 4),
    ("reply trailing bytes", _REPLY + b"\x00" * 4),
    ("upcall reply trailing byte", _UPCALL_REPLY + b"\x00"),
    ("credit trailing bytes", _CREDIT + b"\x00" * 4),
    ("upcall bad utf-8", _put_bytes(_UPCALL, 32, b"\xc3\x28")),
    ("upcall args oversize", _put_word(_UPCALL, 16, _OVERSIZE)),
    ("upcall trace oversize", _put_word(_UPCALL, 28, _OVERSIZE)),
    ("reply results oversize", _put_word(_REPLY, 8, _OVERSIZE)),
    ("upcall args past end", _put_word(_UPCALL, 16, 1000)),
    ("upcall trace past end", _put_word(_UPCALL, 28, 1000)),
    ("reply results past end", _put_word(_REPLY, 8, 1000)),
]


@pytest.mark.parametrize(
    "frame", [pytest.param(f, id=name) for name, f in MALFORMED]
)
def test_malformed_frames_raise_the_walks_error(frame):
    walked = _outcome(decode_message_interpreted, frame)
    assert walked[0] == "raised"
    assert _outcome(decode_message, frame) == walked


@given(compiled_messages, st.data())
def test_damaged_frames_decode_the_same_both_ways(message, data):
    """Truncate, overwrite a byte or a word, or append: whatever the walk
    makes of the result, the compiled entry point makes the same."""
    frame = bytearray(encode_message_interpreted(message))
    how = data.draw(st.sampled_from(("truncate", "byte", "word", "append")))
    if how == "truncate":
        del frame[data.draw(st.integers(0, len(frame) - 1)):]
    elif how == "byte":
        frame[data.draw(st.integers(0, len(frame) - 1))] = data.draw(
            st.integers(0, 255)
        )
    elif how == "word":
        at = 4 * data.draw(st.integers(0, len(frame) // 4 - 1))
        value = data.draw(st.sampled_from([2, 1000, U32_MAX, _OVERSIZE]))
        frame[at:at + 4] = value.to_bytes(4, "big")
    else:
        frame += data.draw(st.binary(min_size=1, max_size=8))
    frame = bytes(frame)
    assert _outcome(decode_message, frame) == _outcome(
        decode_message_interpreted, frame
    )


BAD_VALUES = [
    ("serial negative", ReplyMessage(serial=-1, results=b"")),
    ("serial past u32", UpcallReplyMessage(serial=U32_MAX + 1, results=b"")),
    ("serial bool", ReplyMessage(serial=True, results=b"x")),
    ("serial int enum", ReplyMessage(serial=ChannelRole.UPCALL, results=b"x")),
    ("results bytearray", UpcallReplyMessage(serial=1, results=bytearray(b"abc"))),
    ("results memoryview", ReplyMessage(serial=1, results=memoryview(b"abcde"))),
    ("results str", ReplyMessage(serial=1, results="abc")),
    ("ruc_id past u64", UpcallMessage(serial=1, ruc_id=U64_MAX + 1, args=b"")),
    ("args bytearray", UpcallMessage(serial=1, ruc_id=1, args=bytearray(b"ab"))),
    ("expects_reply int", UpcallMessage(serial=1, ruc_id=1, args=b"", expects_reply=1)),
    ("trace_id surrogate", UpcallMessage(serial=1, ruc_id=1, args=b"",
                                         trace_id="\ud800")),
    ("trace_id bytes", UpcallMessage(serial=1, ruc_id=1, args=b"", trace_id=b"t")),
    ("parent_span negative", UpcallMessage(serial=1, ruc_id=1, args=b"",
                                           parent_span=-1)),
    ("parent_span bool", UpcallMessage(serial=1, ruc_id=1, args=b"",
                                       parent_span=True)),
    ("ruc_id bool", UpcallMessage(serial=1, ruc_id=False, args=b"")),
    ("probe int", CreditMessage(msg_credit=1, byte_credit=1, probe=1)),
    ("credit past u64", CreditMessage(msg_credit=U64_MAX + 1, byte_credit=0)),
    ("credit float", CreditMessage(msg_credit=1.0, byte_credit=0)),
]


@pytest.mark.parametrize(
    "message", [pytest.param(m, id=name) for name, m in BAD_VALUES]
)
def test_declined_values_encode_or_raise_as_the_walk_does(message):
    assert _outcome(encode_message, message) == _outcome(
        encode_message_interpreted, message
    )


@pytest.mark.parametrize(
    "fields",
    [
        {"args": bytearray(b"abc")},
        {"args": "abc"},
        {"args": b"", "expects_reply": 0},
        {"args": b"", "trace_id": "\ud800"},
        {"args": b"", "parent_span": U64_MAX + 1},
    ],
    ids=["args bytearray", "args str", "expects_reply int", "trace_id surrogate",
         "parent_span past u64"],
)
def test_declined_template_values_match_the_walk(fields):
    fields = dict(fields)
    args = fields.pop("args")
    walked = _outcome(
        encode_message_interpreted,
        UpcallMessage(serial=0, ruc_id=0, args=args, **fields),
    )
    assert _outcome(encode_upcall_template, args, **fields) == walked

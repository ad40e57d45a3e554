"""Typed wire messages and their XDR codecs.

Each message is a frozen dataclass with a class-level ``TYPE_CODE`` and
a pair of bundling methods.  The module-level :func:`encode_message` /
:func:`decode_message` dispatch on the type code, which is the first
field of every frame.  The frames a fan-out delivery moves (UPCALL,
UPCALL_REPLY, REPLY, CREDIT) also have compiled fixed-layout codecs,
described at the end of this module; the bundling methods stay their
reference and fallback.

Design notes mapping to the paper:

- ``CallMessage.expects_reply`` distinguishes synchronous calls from
  the asynchronous calls that CLAM batches (§3.4).  Asynchronous calls
  carry a serial anyway so errors can be attributed in order.
- ``BatchMessage`` carries several asynchronous calls in one frame —
  "the CLAM RPC facility batches several asynchronous calls together
  into a single message".
- ``UpcallMessage`` names a RUC identifier rather than an object
  handle: the server invokes *the client's registered procedure*, whose
  address never leaves the client (§3.5.2).
- ``HelloMessage`` declares whether a fresh connection is the client's
  RPC channel or the server→client upcall channel (§4.4).
- Method arguments and results travel as opaque XDR payloads produced
  by the stub layer; the transport does not interpret them.

Versioning: there is one frame layout, protocol version 5.  HELLO
carries the sender's version and :func:`negotiate_version` gates on
it: a peer below 5 is refused before any other frame is read, and a
newer peer is answered with 5.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Type

from repro.errors import ProtocolError, XdrError
from repro.xdr import XdrStream
from repro.xdr.stream import DEFAULT_MAX_LENGTH

#: The frame layout's version, exchanged in HELLO.  Bumped when it changes.
PROTOCOL_VERSION = 5

#: Oldest version this peer speaks: the only one.
MIN_PROTOCOL_VERSION = PROTOCOL_VERSION


def negotiate_version(peer_version: int) -> int:
    """The version a channel should speak given the peer's HELLO.

    Raises :class:`ProtocolError` when no common version exists.
    """
    if peer_version < MIN_PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks protocol {peer_version}, "
            f"older than minimum supported {MIN_PROTOCOL_VERSION}"
        )
    return min(peer_version, PROTOCOL_VERSION)


class ChannelRole(enum.IntEnum):
    """Which of the two per-client streams a connection is (§4.4)."""

    RPC = 1
    UPCALL = 2


class _TypeCode(enum.IntEnum):
    HELLO = 1
    CALL = 2
    REPLY = 3
    EXCEPTION = 4
    BATCH = 5
    UPCALL = 6
    UPCALL_REPLY = 7
    UPCALL_EXCEPTION = 8
    CREDIT = 9


@dataclass(frozen=True)
class Message:
    """Base class for wire messages; concrete subclasses set TYPE_CODE."""

    TYPE_CODE: ClassVar[_TypeCode]

    def bundle(self, stream: XdrStream) -> None:
        raise NotImplementedError

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "Message":
        raise NotImplementedError


@dataclass(frozen=True)
class HelloMessage(Message):
    """First frame on every connection: names the channel and session.

    ``session`` is empty on the RPC channel (the server assigns a
    session id in its reply payload out-of-band via the builtin
    interface); on the upcall channel it carries the token that ties
    this stream to an existing session.
    """

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.HELLO

    role: ChannelRole
    session: str = ""
    protocol_version: int = PROTOCOL_VERSION

    def bundle(self, stream: XdrStream) -> None:
        # The HELLO layout never changes, so a peer of any version can
        # read it and learn that the versions do not match.
        stream.xenum(int(self.role), allowed=(1, 2))
        stream.xstring(self.session)
        stream.xuint(self.protocol_version)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "HelloMessage":
        role = ChannelRole(stream.xenum(allowed=(1, 2)))
        session = stream.xstring()
        peer_version = stream.xuint()
        return cls(role=role, session=session, protocol_version=peer_version)


@dataclass(frozen=True)
class CallMessage(Message):
    """A remote procedure call on an object handle.

    ``oid``/``tag`` form the handle (§3.5.1).  The builtin server
    interface lives at oid 0 with tag 0.  ``args`` is the opaque XDR
    payload the client stub bundled.

    ``trace_id``/``parent_span`` tie the call into the
    caller's distributed trace; empty/0 means "untraced".

    ``deadline_ms`` is the caller's *remaining* time
    budget in milliseconds at send time — relative, so no clock
    synchronization is assumed; 0 means "no deadline".  The server
    measures the budget from its own receipt of the frame.

    ``priority`` is the call's scheduling class — one of
    the :class:`repro.flow.PriorityClass` values, or 0 for
    "unspecified", which the receiver maps to the natural class of the
    call shape (sync → SYNC, batched post → BATCH).

    ``fence_epoch``/``fence_counter`` carry the caller's
    :class:`repro.rpc.FencingToken` — its lease credential, compared
    lexicographically by fence guards on the server.  0/0 means the
    call is unfenced.
    """

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.CALL

    serial: int
    oid: int
    tag: int
    method: str
    args: bytes
    expects_reply: bool
    trace_id: str = ""
    parent_span: int = 0
    deadline_ms: int = 0
    priority: int = 0
    fence_epoch: int = 0
    fence_counter: int = 0

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(self.serial)
        stream.xuhyper(self.oid)
        stream.xuhyper(self.tag)
        stream.xstring(self.method)
        stream.xopaque(self.args)
        stream.xbool(self.expects_reply)
        stream.xstring(self.trace_id)
        stream.xuhyper(self.parent_span)
        stream.xuint(self.deadline_ms)
        stream.xuint(self.priority)
        stream.xuhyper(self.fence_epoch)
        stream.xuhyper(self.fence_counter)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "CallMessage":
        return cls(
            serial=stream.xuint(),
            oid=stream.xuhyper(),
            tag=stream.xuhyper(),
            method=stream.xstring(),
            args=stream.xopaque(),
            expects_reply=stream.xbool(),
            trace_id=stream.xstring(),
            parent_span=stream.xuhyper(),
            deadline_ms=stream.xuint(),
            priority=stream.xuint(),
            fence_epoch=stream.xuhyper(),
            fence_counter=stream.xuhyper(),
        )


@dataclass(frozen=True)
class ReplyMessage(Message):
    """Successful completion of the call with matching ``serial``."""

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.REPLY

    serial: int
    results: bytes

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(self.serial)
        stream.xopaque(self.results)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "ReplyMessage":
        return cls(serial=stream.xuint(), results=stream.xopaque())


@dataclass(frozen=True)
class ExceptionMessage(Message):
    """The remote procedure raised; carries type name, message, traceback."""

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.EXCEPTION

    serial: int
    remote_type: str
    message: str
    traceback: str = ""

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(self.serial)
        stream.xstring(self.remote_type)
        stream.xstring(self.message)
        stream.xstring(self.traceback)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "ExceptionMessage":
        return cls(
            serial=stream.xuint(),
            remote_type=stream.xstring(),
            message=stream.xstring(),
            traceback=stream.xstring(),
        )


@dataclass(frozen=True)
class BatchMessage(Message):
    """Several asynchronous calls bundled into a single frame (§3.4).

    Every member must have ``expects_reply=False``; a synchronous call
    flushes the pending batch ahead of itself instead of joining it.
    """

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.BATCH

    calls: tuple[CallMessage, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for call in self.calls:
            if call.expects_reply:
                raise ProtocolError("batched calls must not expect replies")

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(len(self.calls))
        for call in self.calls:
            call.bundle(stream)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "BatchMessage":
        count = stream.xuint()
        calls = tuple(CallMessage.unbundle(stream) for _ in range(count))
        return cls(calls=calls)


@dataclass(frozen=True)
class UpcallMessage(Message):
    """A distributed upcall: invoke the client procedure behind ``ruc_id``.

    The server never sees the client's procedure address; it sends the
    identifier minted when the procedure pointer was bundled down
    (§3.5.2).
    """

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.UPCALL

    serial: int
    ruc_id: int
    args: bytes
    expects_reply: bool = True
    trace_id: str = ""
    parent_span: int = 0

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(self.serial)
        stream.xuhyper(self.ruc_id)
        stream.xopaque(self.args)
        stream.xbool(self.expects_reply)
        stream.xstring(self.trace_id)
        stream.xuhyper(self.parent_span)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "UpcallMessage":
        return cls(
            serial=stream.xuint(),
            ruc_id=stream.xuhyper(),
            args=stream.xopaque(),
            expects_reply=stream.xbool(),
            trace_id=stream.xstring(),
            parent_span=stream.xuhyper(),
        )


@dataclass(frozen=True)
class UpcallReplyMessage(Message):
    """Successful completion of a distributed upcall."""

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.UPCALL_REPLY

    serial: int
    results: bytes

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(self.serial)
        stream.xopaque(self.results)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "UpcallReplyMessage":
        return cls(serial=stream.xuint(), results=stream.xopaque())


@dataclass(frozen=True)
class UpcallExceptionMessage(Message):
    """The client's upcall procedure raised."""

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.UPCALL_EXCEPTION

    serial: int
    remote_type: str
    message: str
    traceback: str = ""

    def bundle(self, stream: XdrStream) -> None:
        stream.xuint(self.serial)
        stream.xstring(self.remote_type)
        stream.xstring(self.message)
        stream.xstring(self.traceback)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "UpcallExceptionMessage":
        return cls(
            serial=stream.xuint(),
            remote_type=stream.xstring(),
            message=stream.xstring(),
            traceback=stream.xstring(),
        )


@dataclass(frozen=True)
class CreditMessage(Message):
    """Flow-control window announcement for one stream.

    Credits are *cumulative absolutes*, not deltas: the consumer says
    "you may have sent up to ``msg_credit`` messages / ``byte_credit``
    payload bytes in total on this stream".  The producer takes the
    max of what it holds and what arrives, which makes duplicated or
    reordered CREDIT frames harmless — a stale grant can never shrink
    the window, only a newer one can widen it (see
    :class:`repro.flow.CreditGate`).

    ``probe=True`` reverses the direction: a *producer* that has been
    stalled with an exhausted window asks the consumer to re-announce
    its current grant (recovering a dropped CREDIT frame); the counts
    then carry the producer's cumulative *usage* for the consumer's
    audit.  Probes are never themselves grants.
    """

    TYPE_CODE: ClassVar[_TypeCode] = _TypeCode.CREDIT

    msg_credit: int
    byte_credit: int
    probe: bool = False

    def bundle(self, stream: XdrStream) -> None:
        stream.xuhyper(self.msg_credit)
        stream.xuhyper(self.byte_credit)
        stream.xbool(self.probe)

    @classmethod
    def unbundle(cls, stream: XdrStream) -> "CreditMessage":
        return cls(
            msg_credit=stream.xuhyper(),
            byte_credit=stream.xuhyper(),
            probe=stream.xbool(),
        )


_MESSAGE_TYPES: dict[int, Type[Message]] = {
    int(cls.TYPE_CODE): cls
    for cls in (
        HelloMessage,
        CallMessage,
        ReplyMessage,
        ExceptionMessage,
        BatchMessage,
        UpcallMessage,
        UpcallReplyMessage,
        UpcallExceptionMessage,
        CreditMessage,
    )
}


def encode_message(message: Message) -> bytes:
    """Bundle one message into a frame payload.

    Delivery-path frames take their compiled codec (see "Compiled
    fixed-layout codecs" below); everything else, and any value a
    compiled codec declines, takes :func:`encode_message_interpreted`.
    """
    encoder = _COMPILED_ENCODERS.get(message.__class__)
    if encoder is not None:
        try:
            return encoder(message)
        except Exception:
            pass  # declined: the walk encodes it or raises its own error
    return encode_message_interpreted(message)


def encode_message_interpreted(message: Message) -> bytes:
    """The per-field :class:`XdrStream` walk: reference and fallback codec."""
    stream = XdrStream.encoder()
    try:
        stream.xuint(int(message.TYPE_CODE))
        message.bundle(stream)
        return stream.getvalue()
    finally:
        stream.release()


# -- encode-once/write-N upcall templates --------------------------------------
#
# A fan-out post delivers one event to N subscribers.  Everything in
# the UpcallMessage frame except ``serial`` and ``ruc_id`` is identical
# across those N sends (same args payload, same trace context), and
# both variable fields are fixed-width integers at fixed offsets right
# behind the type code:
#
#   bytes [0:4)   xuint  TYPE_CODE (UPCALL = 6)
#   bytes [4:8)   xuint  serial
#   bytes [8:16)  xuhyper ruc_id
#   ...           xopaque args, xbool expects_reply, trace fields
#
# So the frame is marshalled *once* into a template with both fields
# zeroed, and each subscriber send is a buffer copy plus two
# ``struct.pack_into`` patches — no bundler walk, no XDR encode.  The
# offsets are pinned against ``encode_message`` byte-for-byte in
# ``tests/test_wire/test_upcall_template.py``.

#: Byte offset of ``serial`` (xuint) in an encoded UpcallMessage frame.
UPCALL_SERIAL_OFFSET = 4
#: Byte offset of ``ruc_id`` (xuhyper) in an encoded UpcallMessage frame.
UPCALL_RUC_OFFSET = 8

_UINT = struct.Struct(">I")
_UHYPER = struct.Struct(">Q")


def encode_upcall_template(
    args: bytes,
    *,
    expects_reply: bool = True,
    trace_id: str = "",
    parent_span: int = 0,
) -> bytes:
    """Encode an UpcallMessage frame once, with serial/ruc_id zeroed.

    The result is the shared marshalling work of an N-subscriber
    fan-out; :func:`patch_upcall_frame` specializes a copy per send.
    """
    try:
        return _pack_upcall(0, 0, args, expects_reply, trace_id, parent_span)
    except Exception:
        pass  # declined: the walk encodes it or raises its own error
    return encode_message_interpreted(
        UpcallMessage(
            serial=0,
            ruc_id=0,
            args=args,
            expects_reply=expects_reply,
            trace_id=trace_id,
            parent_span=parent_span,
        )
    )


def patch_upcall_frame(template: bytes, serial: int, ruc_id: int) -> bytearray:
    """A copy of ``template`` with the per-send header fields patched in.

    Byte-identical to encoding ``UpcallMessage(serial=serial,
    ruc_id=ruc_id, ...)`` from scratch.
    """
    frame = bytearray(template)
    _UINT.pack_into(frame, UPCALL_SERIAL_OFFSET, serial)
    _UHYPER.pack_into(frame, UPCALL_RUC_OFFSET, ruc_id)
    return frame


def decode_message(data: bytes) -> Message:
    """Unbundle one frame payload into a message.

    Raises :class:`ProtocolError` for unknown type codes and
    propagates :class:`XdrError` for malformed bodies.  Delivery-path
    frames take their compiled codec; a frame it declines is replayed
    through :func:`decode_message_interpreted`, so errors are the walk's.
    """
    # Compiled decoders slice their payloads out of the frame, which
    # yields ``bytes`` only from ``bytes``; other buffers take the walk.
    if data.__class__ is bytes and len(data) >= 4:
        decoder = _COMPILED_DECODERS.get(_UINT.unpack_from(data)[0])
        if decoder is not None:
            try:
                return decoder(data)
            except Exception:
                pass  # declined: the walk re-reads the frame and raises
    return decode_message_interpreted(data)


def decode_message_interpreted(data: bytes) -> Message:
    """The per-field :class:`XdrStream` walk: reference and fallback codec."""
    stream = XdrStream.decoder(data)
    code = stream.xuint()
    cls = _MESSAGE_TYPES.get(code)
    if cls is None:
        raise ProtocolError(f"unknown message type code {code}")
    message = cls.unbundle(stream)
    try:
        stream.expect_exhausted()
    except XdrError as exc:
        raise ProtocolError(str(exc)) from exc
    return message


# -- compiled fixed-layout codecs ----------------------------------------------
#
# A fan-out delivery moves four frame types: each subscriber decodes an
# UPCALL and encodes an UPCALL_REPLY, the server decodes the replies,
# and CREDIT frames pace the stream (REPLY is UPCALL_REPLY's twin on
# the RPC channel).  Their layouts are fixed up to the length of one or
# two opaques, so, as in HAM, a codec here is a precompiled
# ``struct.Struct`` per fixed run plus byte slices, and decoding fills
# the frozen message's ``__dict__`` directly instead of running the
# dataclass ``__init__`` (one ``object.__setattr__`` per field).  The
# contract is that of :mod:`repro.bundlers.compiled`:
#
# - the bytes are the interpreted walk's, both ways, for every message
#   and frame the compiled codec accepts;
# - a codec declines, by raising, whatever it does not handle: a value
#   whose type the walk might treat differently (a bool or int
#   subclass, a bytearray payload), an out-of-range integer, and on
#   decode a truncated frame, nonzero padding, a bool that is not 0 or
#   1, trailing bytes, bad UTF-8 or a length over the XDR maximum.  The
#   entry point replays it through the walk, so every error keeps the
#   walk's exception type and message;
# - other message types only ever take the walk.
#
# tests/test_wire/test_properties.py holds the two paths equal.


class _Decline(Exception):
    """A compiled codec declines; the entry point replays the walk."""


#: Zero padding after an opaque of n bytes is ``_PAD[n & 3]``.
_PAD = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

#: type code, serial, opaque length: REPLY and UPCALL_REPLY up to the payload.
_SERIAL_OPAQUE = struct.Struct(">III")
#: type code, serial, ruc_id, len(args): UPCALL up to the payload.
_UPCALL_HEAD = struct.Struct(">IIQI")
#: expects_reply, len(trace_id): UPCALL after the payload.
_BOOL_LENGTH = struct.Struct(">iI")
#: type code, msg_credit, byte_credit, probe: all of CREDIT.
_CREDIT = struct.Struct(">IQQi")

_UPCALL_CODE = int(_TypeCode.UPCALL)
_CREDIT_CODE = int(_TypeCode.CREDIT)

_new = object.__new__


def _pack_upcall(serial, ruc_id, args, expects_reply, trace_id, parent_span) -> bytes:
    if (
        serial.__class__ is not int
        or ruc_id.__class__ is not int
        or args.__class__ is not bytes
        or expects_reply.__class__ is not bool
        or trace_id.__class__ is not str
        or parent_span.__class__ is not int
    ):
        raise _Decline
    n = len(args)
    trace = trace_id.encode("utf-8")
    m = len(trace)
    if n > DEFAULT_MAX_LENGTH or m > DEFAULT_MAX_LENGTH:
        raise _Decline
    return b"".join((
        _UPCALL_HEAD.pack(_UPCALL_CODE, serial, ruc_id, n), args, _PAD[n & 3],
        _BOOL_LENGTH.pack(expects_reply, m), trace, _PAD[m & 3],
        _UHYPER.pack(parent_span),
    ))


def _encode_upcall(message: UpcallMessage) -> bytes:
    return _pack_upcall(
        message.serial, message.ruc_id, message.args, message.expects_reply,
        message.trace_id, message.parent_span,
    )


def _decode_upcall(data: bytes) -> UpcallMessage:
    _code, serial, ruc_id, n = _UPCALL_HEAD.unpack_from(data)
    end = 20 + n
    pos = end + (-n & 3)
    if n > DEFAULT_MAX_LENGTH or data[end:pos] != _PAD[n & 3]:
        raise _Decline
    expects, m = _BOOL_LENGTH.unpack_from(data, pos)
    start = pos + 8
    stop = start + m
    tail = stop + (-m & 3)
    (parent_span,) = _UHYPER.unpack_from(data, tail)
    if m > DEFAULT_MAX_LENGTH or data[stop:tail] != _PAD[m & 3]:
        raise _Decline
    trace_id = str(data[start:stop], "utf-8") if m else ""
    if tail + 8 != len(data) or expects not in (0, 1):
        raise _Decline
    message = _new(UpcallMessage)
    fields = message.__dict__
    fields["serial"] = serial
    fields["ruc_id"] = ruc_id
    fields["args"] = data[20:end]
    fields["expects_reply"] = expects == 1
    fields["trace_id"] = trace_id
    fields["parent_span"] = parent_span
    return message


def _reply_codec(cls: Type[Message]):
    """Encoder and decoder for a ``serial`` + ``results`` reply type."""
    code = int(cls.TYPE_CODE)
    pack = _SERIAL_OPAQUE.pack
    unpack_from = _SERIAL_OPAQUE.unpack_from

    def encode(message) -> bytes:
        serial = message.serial
        results = message.results
        if serial.__class__ is not int or results.__class__ is not bytes:
            raise _Decline
        n = len(results)
        if n > DEFAULT_MAX_LENGTH:
            raise _Decline
        return b"".join((pack(code, serial, n), results, _PAD[n & 3]))

    def decode(data: bytes):
        _code, serial, n = unpack_from(data)
        end = 12 + n
        if (
            n > DEFAULT_MAX_LENGTH
            or end + (-n & 3) != len(data)
            or data[end:] != _PAD[n & 3]
        ):
            raise _Decline
        message = _new(cls)
        fields = message.__dict__
        fields["serial"] = serial
        fields["results"] = data[12:end]
        return message

    return encode, decode


def _encode_credit(message: CreditMessage) -> bytes:
    msg_credit = message.msg_credit
    byte_credit = message.byte_credit
    probe = message.probe
    if (
        msg_credit.__class__ is not int
        or byte_credit.__class__ is not int
        or probe.__class__ is not bool
    ):
        raise _Decline
    return _CREDIT.pack(_CREDIT_CODE, msg_credit, byte_credit, probe)


def _decode_credit(data: bytes) -> CreditMessage:
    _code, msg_credit, byte_credit, probe = _CREDIT.unpack_from(data)
    if len(data) != _CREDIT.size or probe not in (0, 1):
        raise _Decline
    message = _new(CreditMessage)
    fields = message.__dict__
    fields["msg_credit"] = msg_credit
    fields["byte_credit"] = byte_credit
    fields["probe"] = probe == 1
    return message


_encode_reply, _decode_reply = _reply_codec(ReplyMessage)
_encode_upcall_reply, _decode_upcall_reply = _reply_codec(UpcallReplyMessage)

#: Compiled encoders by exact message class: ``encoder(message)``.
_COMPILED_ENCODERS: dict[type, Callable[[Message], bytes]] = {
    UpcallMessage: _encode_upcall,
    ReplyMessage: _encode_reply,
    UpcallReplyMessage: _encode_upcall_reply,
    CreditMessage: _encode_credit,
}

#: Compiled decoders by type code: ``decoder(frame)``.
_COMPILED_DECODERS: dict[int, Callable[[bytes], Message]] = {
    _UPCALL_CODE: _decode_upcall,
    int(_TypeCode.REPLY): _decode_reply,
    int(_TypeCode.UPCALL_REPLY): _decode_upcall_reply,
    _CREDIT_CODE: _decode_credit,
}

"""Wire protocol: typed messages exchanged on CLAM channels (§3.4, §4.4).

A channel carries a sequence of frames; each frame is one
:class:`Message`.  Because the paper multiplexes nothing — "CLAM
provides separate unix streams for each communication channel" — the
message set is small: calls and replies on the RPC channel, upcalls
and their replies on the upcall channel, plus the HELLO that names
which channel a fresh connection is.

Messages encode to XDR with :func:`encode_message` and decode with
:func:`decode_message`.
"""

from repro.wire.messages import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    BatchMessage,
    CallMessage,
    ChannelRole,
    CreditMessage,
    ExceptionMessage,
    HelloMessage,
    Message,
    ReplyMessage,
    UpcallMessage,
    UpcallReplyMessage,
    UpcallExceptionMessage,
    decode_message,
    encode_message,
    encode_upcall_template,
    negotiate_version,
    patch_upcall_frame,
)

__all__ = [
    "MIN_PROTOCOL_VERSION",
    "PROTOCOL_VERSION",
    "BatchMessage",
    "CallMessage",
    "ChannelRole",
    "CreditMessage",
    "ExceptionMessage",
    "HelloMessage",
    "Message",
    "ReplyMessage",
    "UpcallMessage",
    "UpcallReplyMessage",
    "UpcallExceptionMessage",
    "decode_message",
    "encode_message",
    "encode_upcall_template",
    "negotiate_version",
    "patch_upcall_frame",
]

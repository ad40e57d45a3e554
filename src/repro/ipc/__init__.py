"""Reliable, in-order IPC substrate (paper §3.4, §4.4, §5).

The paper's RPC facility assumes "reliable, in-order delivery of
messages" and gives each client *two* UNIX streams: one for its RPC
requests, one for the server's upcalls.  This package provides that
substrate as a small transport ladder:

===============  ============================================  ====================
URL scheme       Connection                                    Fig 5.1 row
===============  ============================================  ====================
``memory://``    in-process queue pair (same address space)    local-call baselines
``unix://``      AF_UNIX stream socket                         "UNIX domain connection"
``tcp://``       TCP socket                                    "TCP/IP connection, same machine"
``wan://``       TCP + injected one-way latency                "different machines"
===============  ============================================  ====================

All connections speak length-prefixed frames and preserve order.  A
:class:`MessageChannel` layers the typed wire messages of
:mod:`repro.wire` over any connection.

Use :func:`serve` / :func:`dial` with a URL, or instantiate the
transports directly.
"""

from repro.ipc.transport import Connection, Listener, Transport
from repro.ipc.framing import MAX_FRAME_SIZE, read_frame, write_frame
from repro.ipc.memory import MemoryTransport
from repro.ipc.unix import UnixTransport
from repro.ipc.tcp import TcpTransport
from repro.ipc.latency import LatencyConnection, LatencyTransport
from repro.ipc.channel import MessageChannel
from repro.ipc.registry import (
    dial,
    register_scheme,
    serve,
    transport_for_url,
    unregister_scheme,
)

__all__ = [
    "Connection",
    "Listener",
    "Transport",
    "MAX_FRAME_SIZE",
    "read_frame",
    "write_frame",
    "MemoryTransport",
    "UnixTransport",
    "TcpTransport",
    "LatencyConnection",
    "LatencyTransport",
    "MessageChannel",
    "dial",
    "register_scheme",
    "serve",
    "transport_for_url",
    "unregister_scheme",
]

"""Span context: the identity a trace carries across process hops.

A :class:`SpanContext` is the pair ``(trace_id, span_id)``.  The
``trace_id`` names the whole logical operation (one per root span);
the ``span_id`` names one timed region inside it.  When a call, batch
member, or distributed upcall crosses a channel, the sender stamps its
*current* context onto the message (its ``trace_id`` /
``parent_span`` fields) and the receiver adopts it as the parent of
whatever it does next — which is how a client call, the server
handler it triggers, the distributed upcall that handler makes, and
the client RUC execution all end up in one tree.

Inside a process the current context lives in a
:class:`contextvars.ContextVar`, so it follows a task through awaits
and is inherited by tasks it spawns — the asyncio analogue of
thread-local trace state.  Everything here is cheap enough to consult
on untraced paths: one contextvar read and a truthiness check.
"""

from __future__ import annotations

import contextlib
import secrets
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class SpanContext:
    """One node's identity in a distributed trace."""

    trace_id: str
    span_id: int


_current: ContextVar[SpanContext | None] = ContextVar(
    "clam-span-context", default=None
)


def new_trace_id() -> str:
    """A fresh 64-bit trace id as 16 hex digits (collision-safe across
    processes, unlike a per-process counter)."""
    return secrets.token_hex(8)


def new_span_id() -> int:
    """A fresh span id; never 0, which the wire reserves for "no parent"."""
    return secrets.randbits(62) | 1


def current_context() -> SpanContext | None:
    """The context the running task is currently inside, if any."""
    return _current.get()


@contextlib.contextmanager
def using_context(ctx: SpanContext | None) -> Iterator[SpanContext | None]:
    """Make ``ctx`` current for the duration of the block.

    Used both by :meth:`repro.trace.Tracer.span` (each span makes
    itself the parent of whatever runs inside it) and by runtimes that
    merely *propagate* an inbound remote context without recording
    local spans (a context-aware hop whose own tracer has no
    subscribers stays transparent instead of breaking the tree).
    """
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)

"""Execution tracing for calls, upcalls, batches, loads, and faults.

The paper's group measured systems like this one with IPS (their
reference [8]); this module is the reproduction's measurement surface:
every interesting boundary emits :class:`TraceEvent`s through a
:class:`Tracer`, and anything — a test, a live console (the server
CLI's ``--trace``), an exporter from :mod:`repro.obs.export` — can
subscribe.

Design constraints:

- zero overhead when nobody subscribed: :meth:`Tracer.span` and
  :meth:`Tracer.point` short-circuit before constructing any event
  object or reading any clock (the always-on counters still tick);
- events are values (frozen dataclasses), safe to queue or log;
- spans pair ``start``/``end`` by ``span_id`` and carry the duration,
  so a subscriber needs no correlation state;
- spans carry distributed identity: each span joins the trace of the
  current :class:`repro.obs.context.SpanContext` (or of an explicit
  remote ``parent``) and makes itself current for its dynamic extent,
  so nested spans — including ones in *other processes*, reached via
  the ``trace_id``/``parent_span`` wire fields — form one
  tree.
"""

from __future__ import annotations

import collections
import contextlib
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs.context import (
    SpanContext,
    current_context,
    new_span_id,
    new_trace_id,
    using_context,
)

#: Event kinds emitted by the runtimes.
KIND_CALL = "call"            # server executing an inbound call
KIND_UPCALL = "upcall"        # server performing a distributed upcall
KIND_UPCALL_EXEC = "upcall-exec"   # client executing the RUC procedure
KIND_CLIENT_CALL = "client-call"   # client waiting on a sync call
KIND_CLIENT_POST = "client-post"   # client queueing an async call
KIND_FLUSH = "flush"          # a batch leaving the client
KIND_LOAD = "load"            # a module dynamically loaded
KIND_FAULT = "fault"          # a loaded class fault recorded
KIND_FAULT_INJECT = "fault-inject"  # repro.faults injected a fault
KIND_RECONNECT = "reconnect"  # client re-established its channels
KIND_NAMING = "naming"        # the name directory changed (publish/unpublish)
KIND_FANOUT = "fanout"        # an upcall group delivered/dropped/evicted
KIND_FLOW = "flow"            # flow control: grant/stall/probe/shed


@dataclass(frozen=True)
class TraceEvent:
    """One boundary crossing."""

    kind: str
    name: str
    phase: str                 # "start" | "end" | "error" | "point"
    span_id: int = 0
    duration_us: float = 0.0   # set on end/error phases of spans
    detail: str = ""
    trace_id: str = ""         # distributed trace this event belongs to
    parent_id: int = 0         # span_id of the parent span (0 = root)
    ts_us: float = 0.0         # wall-clock microseconds at emit time


Subscriber = Callable[[TraceEvent], None]


def _now_us() -> float:
    return time.time() * 1e6


class Tracer:
    """Event fan-out plus always-on counters."""

    def __init__(self) -> None:
        self._subscribers: list[Subscriber] = []
        self.counters: collections.Counter = collections.Counter()

    @property
    def active(self) -> bool:
        return bool(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Add a subscriber; returns an unsubscribe function.

        The subscriber list is copy-on-write: :meth:`emit` iterates
        whatever list object was current when it started, so a
        subscriber detached *during* an emit (an exporter's
        ``detach_all`` racing live traffic) still receives the
        in-flight event instead of shifting its neighbours out from
        under the iteration.
        """
        self._subscribers = [*self._subscribers, subscriber]

        def unsubscribe() -> None:
            if subscriber in self._subscribers:
                remaining = list(self._subscribers)
                remaining.remove(subscriber)
                self._subscribers = remaining

        return unsubscribe

    def emit(self, event: TraceEvent) -> None:
        self.counters[(event.kind, event.phase)] += 1
        for subscriber in self._subscribers:
            subscriber(event)

    def point(self, kind: str, name: str, detail: str = "") -> None:
        """A single instantaneous event, attributed to the current span."""
        if not self._subscribers:
            self.counters[(kind, "point")] += 1
            return
        parent = current_context()
        self.emit(TraceEvent(
            kind=kind, name=name, phase="point", detail=detail,
            trace_id=parent.trace_id if parent else "",
            parent_id=parent.span_id if parent else 0,
            ts_us=_now_us(),
        ))

    @contextlib.contextmanager
    def span(
        self,
        kind: str,
        name: str,
        detail: str = "",
        parent: SpanContext | None = None,
    ) -> Iterator[SpanContext | None]:
        """Emit start, then end (or error) with the measured duration.

        Yields the span's :class:`SpanContext`, which is also made
        current for the block — stamp it onto outbound messages to
        extend the trace across a channel.  ``parent`` overrides the
        ambient context (used when a message carried a remote parent
        in).  With no subscribers the span is counters-only: no event
        objects, no clock reads, and ``None`` is yielded.
        """
        if not self._subscribers:
            self.counters[(kind, "start")] += 1
            try:
                yield None
            except BaseException:
                self.counters[(kind, "error")] += 1
                raise
            self.counters[(kind, "end")] += 1
            return

        parent_ctx = parent if parent is not None else current_context()
        ctx = SpanContext(
            trace_id=parent_ctx.trace_id if parent_ctx else new_trace_id(),
            span_id=new_span_id(),
        )
        parent_id = parent_ctx.span_id if parent_ctx else 0
        self.emit(TraceEvent(
            kind=kind, name=name, phase="start", span_id=ctx.span_id,
            detail=detail, trace_id=ctx.trace_id, parent_id=parent_id,
            ts_us=_now_us(),
        ))
        start = time.perf_counter()
        try:
            with using_context(ctx):
                yield ctx
        except BaseException as exc:
            self.emit(TraceEvent(
                kind=kind, name=name, phase="error", span_id=ctx.span_id,
                duration_us=(time.perf_counter() - start) * 1e6,
                detail=f"{type(exc).__name__}: {exc}",
                trace_id=ctx.trace_id, parent_id=parent_id, ts_us=_now_us(),
            ))
            raise
        self.emit(TraceEvent(
            kind=kind, name=name, phase="end", span_id=ctx.span_id,
            duration_us=(time.perf_counter() - start) * 1e6,
            trace_id=ctx.trace_id, parent_id=parent_id, ts_us=_now_us(),
        ))


class TimelineRecorder:
    """Subscriber that keeps every event and summarizes durations."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def __call__(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def mean_duration_us(self, kind: str) -> float:
        """Mean duration of *successful* spans of ``kind``."""
        finished = [e for e in self.of_kind(kind) if e.phase == "end"]
        if not finished:
            return 0.0
        return sum(e.duration_us for e in finished) / len(finished)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per kind: completed spans, errors, points, and mean duration.

        ``count`` is successful spans only; ``errors`` and ``points``
        are reported separately and neither pollutes ``mean_us``.
        """
        out: dict[str, dict[str, float]] = {}
        kinds = {e.kind for e in self.events}
        for kind in sorted(kinds):
            events = self.of_kind(kind)
            out[kind] = {
                "count": float(sum(1 for e in events if e.phase == "end")),
                "errors": float(sum(1 for e in events if e.phase == "error")),
                "points": float(sum(1 for e in events if e.phase == "point")),
                "mean_us": self.mean_duration_us(kind),
            }
        return out

"""The traced run: spans installed from outside by rebinding names.

For the traced run only, :meth:`Tracer.install` replaces the entry
points in :data:`TARGETS` — public names, plus the four private loops
listed there that own most of a layer's time — with wrappers that
record a span per call.  No probe, switch or environment variable lives
in ``src/``; the timed run never imports this module.

How time is charged.  The process has one thread and one event loop, so
at any instant at most one wrapped function is executing.  A wrapped
plain function is on the CPU from call to return.  A wrapped coroutine
is driven step by step (``send`` inside the wrapper's ``__await__``):
it is on the CPU during a step and not while it is suspended.  The
tracer keeps one stack of the spans on the CPU right now:

- a span's *self time* is its on-CPU time minus that of spans entered
  beneath it;
- *wait* is time an operation sat still inside a layer: a credit
  gate's span suspended (duration minus on-CPU time), or an item queued
  between two spans (see :meth:`Tracer._hooks`);
- time with the stack empty is *loop time*: asyncio's machinery and the
  kernel, the "framing -> syscall" residue.

Self times of all layers plus loop time add up to the traced window;
:meth:`Tracer.summary` checks that sum against the operation time the
workload stamped itself and fails the run if they differ by more than
:data:`CLOSURE_TOLERANCE`.

A name in :data:`TARGETS` that no longer exists is skipped and its
layer reported under ``missing``; it is never an error, so refactors of
``src/`` need not edit this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import weakref
from typing import Any, Callable

LAYERS = ("stubs", "bundlers", "wire", "ipc", "rpc", "flow", "core", "server",
          "client", "cluster", "store", "obs", "handler")
WAIT_LAYERS = ("flow", "cluster", "rpc")
#: The layer whose spans wait by being suspended (a closed credit gate);
#: the others' waits are queues, see :meth:`Tracer._hooks`.
SUSPENDED_WAIT_LAYER = "flow"
QUEUE_WAIT_LAYERS = ("rpc", "cluster")
CLOSURE_TOLERANCE = 0.05
#: Full span records kept for the Chrome trace; aggregates cover every span.
MAX_RECORDED_SPANS = 20_000

#: (module, class or None, attribute, layer).  Underscore names are the
#: documented exceptions: long-running private loops whose time would
#: otherwise be charged to the loop.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.stubs", "Skeleton", "dispatch", "stubs"),
    ("repro.stubs", "BoundMethod", "bundle_request", "bundlers"),
    ("repro.stubs", "BoundMethod", "unbundle_request", "bundlers"),
    ("repro.stubs", "BoundMethod", "bundle_reply", "bundlers"),
    ("repro.stubs", "BoundMethod", "unbundle_reply", "bundlers"),
    ("repro.ipc.channel", None, "encode_message", "wire"),
    ("repro.ipc.channel", None, "decode_message", "wire"),
    ("repro.server.session", None, "encode_upcall_template", "wire"),
    ("repro.server.session", None, "patch_upcall_frame", "wire"),
    ("repro.ipc", "MessageChannel", "send", "ipc"),
    ("repro.ipc", "MessageChannel", "send_many", "ipc"),
    ("repro.ipc", "MessageChannel", "send_encoded", "ipc"),
    ("repro.ipc", "MessageChannel", "recv", "ipc"),
    ("repro.rpc", "RpcConnection", "call", "rpc"),
    ("repro.rpc", "RpcConnection", "post", "rpc"),
    ("repro.rpc", "RpcConnection", "flush", "rpc"),
    ("repro.rpc", "RpcConnection", "_dispatch_reply", "rpc"),
    ("repro.rpc", "BatchQueue", "post", "rpc"),
    ("repro.rpc", "BatchQueue", "flush", "rpc"),
    ("repro.rpc", "Dispatcher", "handle_message", "rpc"),
    ("repro.flow", "CreditGate", "acquire", "flow"),
    ("repro.flow", "CreditGate", "acquire_batch", "flow"),
    ("repro.flow", "CreditLedger", "drained", "flow"),
    ("repro.core", "UpcallSignature", "bundle_args", "core"),
    ("repro.core", "UpcallSignature", "unbundle_args", "core"),
    ("repro.core", "UpcallSignature", "bundle_result", "core"),
    ("repro.core", "UpcallSignature", "unbundle_result", "core"),
    ("repro.core", "RemoteUpcall", "__call__", "core"),
    ("repro.server.session", "Session", "send_upcall", "server"),
    ("repro.server.session", "Session", "send_upcall_batch", "server"),
    ("repro.client.upcall_task", "UpcallService", "accept", "client"),
    ("repro.client.upcall_task", "UpcallService", "_handle", "client"),
    ("repro.cluster", "UpcallGroup", "subscribe", "cluster"),
    ("repro.cluster", "UpcallGroup", "post", "cluster"),
    ("repro.cluster", "UpcallGroup", "flush", "cluster"),
    ("repro.cluster", "UpcallGroup", "_pump", "cluster"),
    ("repro.store", "SubscriberLog", "append", "store"),
    ("repro.store", "SubscriberLog", "append_many", "store"),
    ("repro.store", "SubscriberLog", "replay", "store"),
    ("repro.store", "SubscriberLog", "ack", "store"),
    ("repro.obs", "FlightRecorder", "note", "obs"),
    # Not a layer: the bench's reference routine, taken out of the window.
    ("perf.calibrate", "Reference", "tick", "calibrate"),
)

_now = time.perf_counter


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "on_cpu",
                 "self_s", "stepped_at", "resumed_at")

    def __init__(self, name: str, layer: str, start: float, parent: int, op: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.on_cpu = 0.0
        self.self_s = 0.0
        self.stepped_at = 0.0
        self.resumed_at = 0.0


class Tracer:
    """Installs the wrappers, keeps the CPU stack, sums up the layers."""

    def __init__(self):
        self.missing: dict[str, list[str]] = {}
        self.installed = 0
        self._stack: list[_Span] = []
        #: Spans begun and not finished: suspended coroutines, parked loops.
        self._open: set[_Span] = set()
        self._spans: list[_Span] = []
        #: What stop() froze: self seconds by layer; counts, calls, waits.
        self._totals: dict[str, float] = {}
        self._stopped_counts: tuple[dict, dict, dict] = ({}, {}, {})
        self._dropped = 0
        self._op = 0
        self._ops_open = 0
        self._started_at = 0.0
        self._stopped_at = 0.0
        self.self_s: dict[str, float] = {}
        self.wait_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.count: dict[str, int] = {
            "frames": 0, "writes": 0, "credit_msgs": 0, "pump_wakeups": 0,
            "posts": 0, "notes": 0,
        }
        #: layer -> taker -> when each item it has yet to take was queued.
        #: Keyed weakly: a session that went away takes its stamps along.
        self._waiting: dict[str, weakref.WeakKeyDictionary] = {
            layer: weakref.WeakKeyDictionary() for layer in QUEUE_WAIT_LAYERS
        }
        #: group -> the sessions its remote subscribers deliver through.
        self._takers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: The longest any one item waited, and the longest operation: an
        #: item is queued and taken inside one operation, see summary().
        self._longest_wait = 0.0
        self._longest_op = 0.0

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every target that exists; note the ones that do not."""
        for module_name, class_name, attribute, layer in TARGETS:
            label = f"{class_name or module_name}.{attribute}"
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.setdefault(layer, []).append(label)
                continue
            if not inspect.isfunction(original):
                self.missing.setdefault(layer, []).append(label)
                continue
            setattr(owner, attribute, self.wrap(original, label, layer))
            self.installed += 1
        self._install_proxies()
        self._install_bench()

    def _install_proxies(self) -> None:
        """Wrap the remote methods of every proxy class as it is generated."""
        try:
            client = importlib.import_module("repro.stubs.client")
            original = client.proxy_class_for
        except (ImportError, AttributeError):
            self.missing.setdefault("stubs", []).append("Proxy remote methods")
            return
        wrapped_classes: set[type] = set()

        @functools.wraps(original)
        def proxy_class_for(iface: type) -> type:
            cls = original(iface)
            if cls not in wrapped_classes:
                wrapped_classes.add(cls)
                for name in getattr(cls, "_clam_spec_").methods:
                    method = cls.__dict__.get(name)
                    if inspect.isfunction(method):
                        setattr(cls, name, self.wrap(method, f"Proxy.{name}", "stubs"))
            return cls

        client.proxy_class_for = proxy_class_for
        self.installed += 1

    def _install_bench(self) -> None:
        """The bench's own operations (``op_*``) and handlers (``on_*``)."""
        workloads = importlib.import_module("perf.workloads")
        for cls in vars(workloads).values():
            if not inspect.isclass(cls) or cls.__module__ != workloads.__name__:
                continue
            for name, member in list(vars(cls).items()):
                if not inspect.isfunction(member):
                    continue
                if name.startswith("op_"):
                    setattr(cls, name, self.wrap(member, f"{cls.__name__}.{name}",
                                                 "bench", is_op=True))
                elif name.startswith("on_"):
                    setattr(cls, name, self.wrap(member, f"{cls.__name__}.{name}",
                                                 "handler"))

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str, is_op: bool = False) -> Callable:
        tracer = self
        before, after = self._hooks(name)

        # The wrappers trace from the moment they are installed, not from
        # start(): the pumps and readers begun during set-up run for the
        # whole window and their spans must already be open when it starts.
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                result = await _Driven(tracer, fn(*args, **kwargs), name, layer, is_op)
                if after is not None:
                    after(args)
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                span = tracer.begin(name, layer, is_op)
                tracer.push(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.pop(span)
                    tracer.finish(span, is_op)
                if after is not None:
                    after(args)
                return result
        return traced

    def _hooks(self, name: str) -> tuple[Callable[[tuple], None] | None,
                                         Callable[[tuple], None] | None]:
        """The counting done as ``name`` is entered, and after it has returned.

        Two queues are watched from outside.  A post sits in a
        ``BatchQueue`` from the end of ``BatchQueue.post`` to the start of
        that queue's next ``flush``.  An event sits in a subscriber's
        queue from the end of ``UpcallGroup.post`` to the start of the
        next ``send_upcall*`` of the session that subscriber delivers
        through, so a post to 8 subscribers waits 8 times — once per
        delivery.  A group with no live subscriber queues nothing (its
        posts go to the store, or nowhere).
        """
        count = self.count
        before = after = None
        if name == "MessageChannel.send":
            def before(args):
                count["writes"] += 1
                count["frames"] += 1
                if type(args[1]).__name__ == "CreditMessage":
                    count["credit_msgs"] += 1
        elif name in ("MessageChannel.send_many", "MessageChannel.send_encoded"):
            def before(args):
                count["writes"] += 1
                count["frames"] += len(args[1])
        elif name in ("Session.send_upcall", "Session.send_upcall_batch"):
            def before(args):
                count["pump_wakeups"] += 1
                self._take("cluster", args[0])
        elif name == "BatchQueue.flush":
            def before(args):
                self._take("rpc", args[0])
        elif name == "BatchQueue.post":
            def after(args):
                self._waiting["rpc"].setdefault(args[0], []).append(_now())
        elif name == "UpcallGroup.subscribe":
            def before(args):
                group, session = args[0], getattr(args[1], "sender", None)
                if session is None:
                    return  # a host-local subscriber: no queue hand-off to watch
                if len(group) == 0:
                    self._takers.pop(group, None)  # whoever subscribed before is gone
                self._takers.setdefault(group, weakref.WeakSet()).add(session)
                self._waiting["cluster"].setdefault(session, [])
        elif name == "UpcallGroup.post":
            def before(args):
                count["posts"] += 1

            def after(args):
                group = args[0]
                if len(group):
                    stamp = _now()
                    waiting = self._waiting["cluster"]
                    for session in self._takers.get(group, ()):
                        waiting[session].append(stamp)
        elif name == "FlightRecorder.note":
            def before(args):
                count["notes"] += 1
        return before, after

    # -- the CPU stack ------------------------------------------------------------

    def begin(self, name: str, layer: str, is_op: bool) -> _Span:
        now = _now()
        if is_op:
            if self._ops_open == 0:
                self._op += 1
            self._ops_open += 1
        parent = id(self._stack[-1]) if self._stack else 0
        span = _Span(name, layer, now, parent, self._op if self._ops_open else 0)
        self._open.add(span)
        return span

    def push(self, span: _Span) -> None:
        now = _now()
        stack = self._stack
        if stack:
            below = stack[-1]
            below.self_s += now - below.resumed_at
        span.stepped_at = span.resumed_at = now
        stack.append(span)

    def pop(self, span: _Span) -> None:
        now = _now()
        stack = self._stack
        stack.pop()
        span.self_s += now - span.resumed_at
        span.on_cpu += now - span.stepped_at
        if stack:
            stack[-1].resumed_at = now

    def finish(self, span: _Span, is_op: bool) -> None:
        span.end = _now()
        self._open.discard(span)
        if is_op:
            self._ops_open -= 1
            self._longest_op = max(self._longest_op, span.end - span.start)
        layer = span.layer
        self.self_s[layer] = self.self_s.get(layer, 0.0) + span.self_s
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if layer == SUSPENDED_WAIT_LAYER:
            self.wait_s[layer] = (self.wait_s.get(layer, 0.0)
                                  + (span.end - span.start) - span.on_cpu)
        if len(self._spans) < MAX_RECORDED_SPANS:
            self._spans.append(span)
        else:
            self._dropped += 1

    def _take(self, layer: str, taker: Any) -> None:
        """``taker`` starts: all that was queued for it waited until now."""
        stamps = self._waiting[layer].get(taker)
        if stamps:
            now = _now()
            self.wait_s[layer] = (self.wait_s.get(layer, 0.0)
                                  + sum(now - stamp for stamp in stamps))
            self._longest_wait = max(self._longest_wait, now - stamps[0])
            stamps.clear()

    # -- the window ---------------------------------------------------------------

    def start(self) -> None:
        """Open the window: forget set-up, keep the spans that are still open."""
        self.self_s.clear()
        self.wait_s.clear()
        self.calls.clear()
        self._spans.clear()
        self._dropped = 0
        self._longest_wait = self._longest_op = 0.0
        for waiting in self._waiting.values():
            for stamps in waiting.values():
                stamps.clear()
        for key in self.count:
            self.count[key] = 0
        for span in self._open:
            span.self_s = span.on_cpu = 0.0
        self._started_at = _now()

    def stop(self) -> None:
        """Close the window: spans still open count as far as they have run."""
        self._stopped_at = _now()
        self._totals = dict(self.self_s)
        for span in self._open:
            self._totals[span.layer] = self._totals.get(span.layer, 0.0) + span.self_s
        self._stopped_counts = (dict(self.count), dict(self.calls), dict(self.wait_s))

    def summary(self, result: dict) -> dict:
        """Per-operation layer metrics, the closure check, what was missing.

        ``result`` is the workload's report: ``ops`` operations stamped
        at ``op_seconds`` in total by the workload itself.
        """
        ops = max(1, result["ops"])
        window = self._stopped_at - self._started_at
        totals = dict(self._totals)
        count, calls, wait_s = self._stopped_counts
        loop_s = window - sum(totals.values())
        # The reference routine runs between operations and is no part of them.
        window -= totals.pop("calibrate", 0.0)
        op_seconds = result["op_seconds"]
        # Layers and loop add up to the window by construction; the check is
        # that the window is the operations and nothing else.
        closure = window / op_seconds if op_seconds else float("inf")
        named = sum(totals.get(layer, 0.0) for layer in LAYERS)
        per_op_us = 1e6 / ops
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"trace.{layer}.self_us"] = totals.get(layer, 0.0) * per_op_us
            metrics[f"trace.{layer}.calls"] = calls.get(layer, 0) / ops
        for layer in WAIT_LAYERS:
            metrics[f"trace.{layer}.wait_us"] = wait_s.get(layer, 0.0) * per_op_us
        metrics["trace.bench.self_us"] = totals.get("bench", 0.0) * per_op_us
        metrics["trace.loop_us"] = loop_s * per_op_us
        metrics["trace.op_us"] = op_seconds * per_op_us
        metrics["trace.coverage"] = named / op_seconds if op_seconds else 0.0
        metrics["trace.closure"] = closure
        metrics["trace.ipc.frames_per_op"] = count["frames"] / ops
        metrics["trace.ipc.writes_per_op"] = count["writes"] / ops
        metrics["trace.flow.credit_msgs_per_op"] = count["credit_msgs"] / ops
        metrics["trace.cluster.pump_wakeups_per_post"] = (
            count["pump_wakeups"] / count["posts"] if count["posts"] else 0.0
        )
        metrics["trace.obs.notes_per_op"] = count["notes"] / ops
        metrics["trace.missing_names"] = float(sum(map(len, self.missing.values())))
        return {
            "metrics": metrics,
            "missing": self.missing,
            "installed": self.installed,
            "closure_ok": abs(closure - 1.0) <= CLOSURE_TOLERANCE,
            # An item is queued and taken inside one operation, so none can
            # have waited longer than the longest operation ran.
            "waits_ok": self._longest_wait <= self._longest_op,
            "longest_wait_s": self._longest_wait,
            "longest_op_s": self._longest_op,
            "window_s": window,
            "spans_recorded": len(self._spans),
            "spans_dropped": self._dropped,
        }

    def write_chrome(self, path: str) -> None:
        """The recorded spans as Chrome ``trace_event`` JSON (complete events)."""
        origin = self._started_at
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "pid": 1,
                "tid": span.op,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {
                    "id": id(span),
                    "parent": span.parent,
                    "op": span.op,
                    "on_cpu_us": span.on_cpu * 1e6,
                    "self_us": span.self_s * 1e6,
                },
            }
            for span in self._spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)


class _Driven:
    """Awaitable that drives ``coro`` one step at a time under a span."""

    __slots__ = ("tracer", "coro", "name", "layer", "is_op")

    def __init__(self, tracer: Tracer, coro, name: str, layer: str, is_op: bool):
        self.tracer = tracer
        self.coro = coro
        self.name = name
        self.layer = layer
        self.is_op = is_op

    def __await__(self):
        tracer = self.tracer
        inner = self.coro.__await__()
        span = tracer.begin(self.name, self.layer, self.is_op)
        step, argument = inner.send, None
        try:
            while True:
                tracer.push(span)
                try:
                    yielded = step(argument)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.pop(span)
                try:
                    argument = yield yielded
                    step = inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:
                    step, argument = inner.throw, exc
        finally:
            tracer.finish(span, self.is_op)

"""The server side of the RPC channel (paper §3.4, §3.5.1).

Two pieces:

- :class:`Exports` — the server-wide state: the object table of
  §3.5.1 plus, per exported object, its interface spec.  Shared by
  every client session, which is what lets clients share objects.

- :class:`Dispatcher` — per-session call execution.  Each session has
  its own dispatcher because bundling is session-relative: unbundling
  a procedure pointer must mint a RUC bound to *that* client's upcall
  channel (§3.5.2), so each dispatcher carries the session's bundler
  registry and its own skeleton bindings.

Calls execute in arrival order — the guarantee batching (§3.4) relies
on.  Synchronous calls answer with ``ReplyMessage`` or
``ExceptionMessage``; asynchronous calls answer with nothing, and
their failures go to the ``async_error`` hook.  The ``call_guard`` and
``call_failed`` hooks are where the server runtime wires §4.3's fault
isolation for dynamically loaded classes.
"""

from __future__ import annotations

import asyncio
import collections
import time
import traceback
from typing import Any, Awaitable, Callable, Optional

from repro.errors import (
    ClamError,
    DeadlineExpiredError,
    HandleError,
    NotLeaderError,
    ServerOverloadedError,
)
from repro.bundlers.base import BundlerRegistry
from repro.handles import Descriptor, Handle, ObjectTable
from repro.ipc import MessageChannel
from repro.obs.context import SpanContext, using_context
from repro.obs.profile import reset_layer, set_layer
from repro.rpc.fencing import FencingToken, fence_scope
from repro.stubs import InterfaceSpec, Skeleton, interface_spec
from repro.wire import (
    BatchMessage,
    CallMessage,
    CreditMessage,
    ExceptionMessage,
    Message,
    ReplyMessage,
)

#: Hook invoked with (call, exception) when an asynchronous call fails.
AsyncErrorHook = Callable[[CallMessage, Exception], Optional[Awaitable[None]]]
#: Hook invoked with the descriptor before a call runs; may raise.
CallGuard = Callable[[Descriptor], None]
#: Hook invoked with (descriptor, method, exception) when a call raises.
CallFailed = Callable[[Descriptor, str, Exception], Optional[Awaitable[None]]]


class Exports:
    """Server-wide exported objects: handles plus interface specs."""

    def __init__(self) -> None:
        self.table = ObjectTable()
        self._specs: dict[int, InterfaceSpec] = {}

    def export(
        self,
        obj: Any,
        *,
        spec: InterfaceSpec | None = None,
        version: int | None = None,
    ) -> Handle:
        """Issue a handle for ``obj`` (§3.5.1) and remember its spec."""
        spec = spec or interface_spec(type(obj))
        handle = self.table.issue(
            obj, spec.class_name, version if version is not None else spec.version
        )
        self._specs.setdefault(handle.oid, spec)
        return handle

    def revoke(self, handle: Handle) -> Any:
        obj = self.table.revoke(handle)
        self._specs.pop(handle.oid, None)
        return obj

    def entry(self, handle: Handle) -> tuple[Any, InterfaceSpec, Descriptor]:
        """Validate ``handle`` and return (object, spec, descriptor)."""
        descriptor = self.table.descriptor(handle)
        spec = self._specs.get(handle.oid)
        if spec is None:
            raise HandleError(f"object {handle.oid} has no interface spec")
        return descriptor.obj, spec, descriptor


class Dispatcher:
    """Executes one session's inbound calls against the exports."""

    def __init__(
        self,
        registry: BundlerRegistry,
        *,
        exports: Exports | None = None,
        async_error: AsyncErrorHook | None = None,
        call_guard: CallGuard | None = None,
        call_failed: CallFailed | None = None,
        tracer=None,
        metrics=None,
        profiler=None,
        flight=None,
        on_incident=None,
        dedup_window: int = 512,
    ):
        self._tracer = tracer
        self._metrics = metrics
        #: Per-layer attribution (:class:`repro.obs.profile.LayerProfiler`)
        #: — the exported class name is the layer key, so every layer a
        #: server hosts gets its own row in the ``profile`` RPC.
        self._profiler = profiler
        #: Flight recorder (:class:`repro.obs.flight.FlightRecorder`):
        #: one bounded note per call, dumped when something goes wrong.
        self._flight = flight
        #: Hook ``(reason, detail)`` fired on incidents worth a flight
        #: dump (currently: a call overrunning its wire deadline).
        self._on_incident = on_incident
        self._registry = registry
        self._exports = exports if exports is not None else Exports()
        self._skeletons: dict[int, Skeleton] = {}
        self._builtin: tuple[Skeleton, Descriptor] | None = None
        self._async_error = async_error
        self._call_guard = call_guard
        self._call_failed = call_failed
        # Completed synchronous calls, serial -> answer already sent.
        # Client retries re-send the same serial, so a duplicate that
        # slips past a flaky network re-sends the cached answer instead
        # of executing again — at-most-once per logical call (§3.4's
        # exactly-once intent under our retry extension).
        self._dedup_window = dedup_window
        self._completed: collections.OrderedDict[int, Message] = (
            collections.OrderedDict()
        )
        # Asynchronous posts carry no reply to cache, but their serials
        # are just as unique per connection: a duplicated frame (flaky
        # transport) must not run the handler twice.
        self._seen_posts: collections.OrderedDict[int, None] = (
            collections.OrderedDict()
        )
        self.calls_executed = 0
        self.duplicate_calls = 0
        self.deadline_expired = 0
        #: Per-channel flow state (:class:`repro.flow.ChannelFlow`),
        #: installed by the server runtime after HELLO.  When None —
        #: bare dispatchers — every call is admitted and no credits are
        #: granted.
        self.flow = None

    def set_builtin(self, skeleton: Skeleton, descriptor: Descriptor) -> None:
        """Install the object served at the well-known handle (oid 0, tag 0).

        Oid 0 is otherwise the nil handle, which the object table never
        issues, so the builtin needs no entry there — it is the one
        object a client may name without having received its handle
        first.
        """
        self._builtin = (skeleton, descriptor)

    # -- convenience passthroughs -------------------------------------------------

    @property
    def registry(self) -> BundlerRegistry:
        return self._registry

    @property
    def exports(self) -> Exports:
        return self._exports

    @property
    def table(self) -> ObjectTable:
        return self._exports.table

    def export(self, obj: Any, *, spec: InterfaceSpec | None = None,
               version: int | None = None) -> Handle:
        return self._exports.export(obj, spec=spec, version=version)

    def revoke(self, handle: Handle) -> Any:
        self._skeletons.pop(handle.oid, None)
        return self._exports.revoke(handle)

    def skeleton_for(self, handle: Handle) -> tuple[Skeleton, Descriptor]:
        """Validate the handle and return this session's skeleton for it."""
        if handle.oid == 0 and handle.tag == 0 and self._builtin is not None:
            return self._builtin
        obj, spec, descriptor = self._exports.entry(handle)
        skeleton = self._skeletons.get(handle.oid)
        if skeleton is None or skeleton.impl is not obj:
            skeleton = Skeleton(obj, self._registry, spec=spec)
            self._skeletons[handle.oid] = skeleton
        return skeleton, descriptor

    # -- executing calls ----------------------------------------------------------------

    async def handle_message(self, message: Message, channel: MessageChannel) -> None:
        """Execute one inbound RPC-channel message, replying as needed."""
        # Deadlines are relative wire budgets (no clock sync); the
        # server measures them from its own receipt of the message.
        arrived = time.monotonic()
        if isinstance(message, CallMessage):
            if self.flow is not None:
                self.flow.note_received(message)
            await self._run_call(message, channel, arrived)
        elif isinstance(message, BatchMessage):
            # The whole batch is in server memory now — account for it
            # all before draining it call by call, so the in-flight
            # figure the credit window bounds is honest.
            if self.flow is not None:
                for call in message.calls:
                    self.flow.note_received(call)
            # "batched calls will arrive in the correct order" — and
            # they execute in that order too.
            for call in message.calls:
                await self._run_call(call, channel, arrived)
        elif isinstance(message, CreditMessage):
            # A producer stalled long enough to suspect a lost grant is
            # probing.  The probe carries the producer's cumulative
            # usage so lost frames can be written off, and the answer —
            # the current cumulative grant — is idempotent, so a
            # duplicated probe is harmless.
            if self.flow is not None and message.probe:
                await self.flow.probed(message)
        else:
            raise ClamError(f"unexpected message on RPC channel: {message!r}")

    def _remaining_budget(self, call: CallMessage, arrived: float) -> float | None:
        """Seconds left of the call's wire deadline; None when it has none.

        Raises :class:`DeadlineExpiredError` when the budget is already
        spent — work nobody will wait for is aborted before it starts.
        """
        if not call.deadline_ms:
            return None
        budget = call.deadline_ms / 1000.0 - (time.monotonic() - arrived)
        if budget <= 0:
            raise DeadlineExpiredError(
                f"deadline of {call.deadline_ms}ms expired before "
                f"{call.method!r} started"
            )
        return budget

    async def _run_call(
        self, call: CallMessage, channel: MessageChannel, arrived: float
    ) -> None:
        if call.expects_reply and call.serial in self._completed:
            # A retry of a call that already completed: answer from the
            # cache, execute nothing.
            self.duplicate_calls += 1
            if self._metrics is not None:
                self._metrics.counter("rpc.server.duplicate_calls").inc()
            await channel.send(self._completed[call.serial])
            return
        if not call.expects_reply:
            if call.serial in self._seen_posts:
                # A duplicated post frame: the first copy ran (or will).
                self.duplicate_calls += 1
                if self._metrics is not None:
                    self._metrics.counter("rpc.server.duplicate_calls").inc()
                if self.flow is not None:
                    # The duplicate arrival was counted; drain it.
                    await self.flow.note_drained(call)
                return
            self._seen_posts[call.serial] = None
            while len(self._seen_posts) > self._dedup_window:
                self._seen_posts.popitem(last=False)
        flow = self.flow
        queue_wait = time.monotonic() - arrived
        admitted = False
        descriptor: Descriptor | None = None
        # The caller's span, carried in on the wire; it
        # becomes the parent of the handler span — or, when nobody is
        # tracing here, merely the ambient context, so the trace still
        # flows through to any distributed upcalls this call makes.
        remote = (
            SpanContext(trace_id=call.trace_id, span_id=call.parent_span)
            if call.trace_id
            else None
        )
        started = (
            time.perf_counter()
            if self._metrics is not None or self._profiler is not None
            else 0.0
        )
        layer_token = None
        try:
            # Admission first: a shed call must cost nothing but the
            # verdict — no skeleton lookup, no guard, no execution.
            if flow is not None:
                flow.admit(call, arrived)
            admitted = True
            self.calls_executed += 1
            budget = self._remaining_budget(call, arrived)
            skeleton, descriptor = self.skeleton_for(Handle(oid=call.oid, tag=call.tag))
            if self._call_guard is not None:
                self._call_guard(descriptor)
            if self._profiler is not None:
                # The exported class name names the layer; everything in
                # the call's dynamic extent — including distributed
                # upcalls it makes — is attributed to it.
                layer_token = set_layer(descriptor.class_name)
            try:
                if self._tracer is not None and self._tracer.active:
                    from repro.trace import KIND_CALL

                    with self._tracer.span(
                        KIND_CALL, f"{descriptor.class_name}.{call.method}",
                        parent=remote,
                    ):
                        reply_payload = await self._dispatch_bounded(
                            skeleton, call, budget
                        )
                elif remote is not None:
                    with using_context(remote):
                        reply_payload = await self._dispatch_bounded(
                            skeleton, call, budget
                        )
                else:
                    reply_payload = await self._dispatch_bounded(skeleton, call, budget)
            except asyncio.TimeoutError:
                if budget is None:  # raised by the body, not by our bound
                    raise
                raise DeadlineExpiredError(
                    f"{call.method!r} overran its {call.deadline_ms}ms deadline"
                ) from None
            if self._metrics is not None or self._profiler is not None:
                ended = time.perf_counter()
                elapsed_us = (ended - started) * 1e6
                if self._metrics is not None:
                    self._metrics.histogram(
                        f"rpc.server.call_us.{descriptor.class_name}.{call.method}"
                    ).observe(elapsed_us)
                if self._profiler is not None:
                    self._profiler.record_call(
                        descriptor.class_name,
                        elapsed_us,
                        len(call.args),
                        len(reply_payload or b""),
                    )
            else:
                ended = 0.0
            if self._flight is not None:
                # name/detail as separate slots (an f-string here is a
                # per-call allocation), reusing the clock reading the
                # latency math already paid for.
                self._flight.note(
                    "call", descriptor.class_name, call.method, ended
                )
        except Exception as exc:
            if isinstance(exc, DeadlineExpiredError):
                self.deadline_expired += 1
                if self._metrics is not None:
                    self._metrics.counter("rpc.server.deadline_expired").inc()
                if self._on_incident is not None:
                    # A spent deadline is the §4.3 symptom the flight
                    # recorder exists for: freeze the recent past now.
                    self._on_incident(
                        "deadline-expired",
                        f"{call.method} ({call.deadline_ms}ms)",
                    )
            if self._flight is not None:
                name = (
                    f"{descriptor.class_name}.{call.method}"
                    if descriptor is not None
                    else call.method
                )
                self._flight.note(
                    "call-error", name, f"{type(exc).__name__}: {exc}"
                )
            if self._profiler is not None and descriptor is not None:
                self._profiler.record_call(
                    descriptor.class_name,
                    (time.perf_counter() - started) * 1e6,
                    len(call.args),
                    0,
                    True,
                )
            if descriptor is not None and self._call_failed is not None:
                result = self._call_failed(descriptor, call.method, exc)
                if result is not None:
                    await result
            await self._report_failure(call, exc, channel)
            return
        finally:
            if layer_token is not None:
                reset_layer(layer_token)
            if flow is not None:
                if admitted:
                    flow.finish(call, queue_wait)
                # Credits were consumed by the *arrival*, so drain (and
                # possibly re-grant) whether the call ran or was shed.
                await flow.note_drained(call)
        if call.expects_reply:
            await self._answer(
                call, ReplyMessage(serial=call.serial, results=reply_payload or b""),
                channel,
            )

    @staticmethod
    async def _dispatch_bounded(
        skeleton: Skeleton, call: CallMessage, budget: float | None
    ) -> bytes | None:
        """Run the call body, bounded by what remains of its deadline.

        The caller's fencing token (zero when unfenced) is
        restored as the ambient fence for the handler's dynamic extent,
        so guarded resources read it via
        :func:`repro.rpc.current_fence` — no signature changes.
        """
        token = (
            FencingToken(call.fence_epoch, call.fence_counter)
            if call.fence_epoch or call.fence_counter
            else None
        )
        with fence_scope(token):
            if budget is None:
                return await skeleton.dispatch(call.method, call.args)
            return await asyncio.wait_for(
                skeleton.dispatch(call.method, call.args), budget
            )

    async def _answer(
        self, call: CallMessage, message: Message, channel: MessageChannel
    ) -> None:
        """Send a synchronous call's answer and cache it for retries."""
        self._completed[call.serial] = message
        while len(self._completed) > self._dedup_window:
            self._completed.popitem(last=False)
        await channel.send(message)

    async def _report_failure(
        self, call: CallMessage, exc: Exception, channel: MessageChannel
    ) -> None:
        if call.expects_reply:
            answer = ExceptionMessage(
                serial=call.serial,
                remote_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
            )
            if isinstance(exc, (ServerOverloadedError, NotLeaderError)):
                # A shed — or a follower's refusal — is a verdict about
                # *this moment*, not about the call: it must not enter
                # the duplicate cache, so a retried serial is judged
                # afresh instead of being bounced with the stale verdict
                # (this server may be the leader by then).
                await channel.send(answer)
            else:
                await self._answer(call, answer, channel)
            return
        # Batched posts have nobody waiting, but a handle fault (or a
        # shed) is actionable on the client: it gets an out-of-band
        # notification keyed by the post's serial.
        if isinstance(exc, (HandleError, ServerOverloadedError)):
            await channel.send(
                ExceptionMessage(
                    serial=call.serial,
                    remote_type=type(exc).__name__,
                    message=str(exc),
                    traceback="",
                )
            )
        # Shed posts are expected behaviour under overload — they are
        # counted by the flow metrics, not funnelled into the server's
        # async-failure hook (which would flood the logs).
        if self._async_error is not None and not isinstance(exc, ServerOverloadedError):
            result = self._async_error(call, exc)
            if result is not None:
                await result

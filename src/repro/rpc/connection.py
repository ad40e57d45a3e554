"""The client side of the RPC channel (paper §3.4, §4.4).

An :class:`RpcConnection` owns one
:class:`~repro.ipc.MessageChannel` — the client's RPC stream — plus
the batch queue and the table of outstanding synchronous calls.  It
implements the :class:`~repro.stubs.CallEndpoint` protocol, so a
proxy built over it turns method calls into wire traffic:

- value-returning methods → :meth:`call`: flush the batch (ordering!),
  send a ``CallMessage`` with ``expects_reply``, block the calling
  task on the reply future;
- void methods → :meth:`post`: bundle into the batch queue and return
  immediately.

A background reader task delivers replies and surfaces remote
exceptions as :class:`~repro.errors.RemoteError` on the waiting
future.

Resilience (this layer's contribution to the fault story):

- synchronous calls propagate the remaining ambient deadline
  (:func:`repro.rpc.resilience.deadline_scope`) on the wire, so the
  server can abort expired work;
- calls flagged ``idempotent`` retry under a :class:`RetryPolicy`,
  reusing the *same serial* each attempt — the server's duplicate
  cache then guarantees at-most-once execution even when a retry
  crosses its original in flight;
- a channel that dies can be *re-adopted*: :meth:`adopt_channel`
  swaps in a freshly negotiated channel without invalidating the
  proxies that point at this endpoint (their queued batch survives);
- handles the server reports stale/forged are remembered, so every
  later use fails fast locally with
  :class:`~repro.errors.RemoteStaleError` — which is how *batched*
  posts against a dead handle surface their error on the next use.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import logging
import time

from repro.errors import (
    CallTimeoutError,
    ConnectionClosedError,
    FencedWriteError,
    NotLeaderError,
    ProtocolError,
    RemoteError,
    RemoteStaleError,
    ServerOverloadedError,
)
from repro.bundlers.base import BundlerRegistry
from repro.flow import (
    CreditGate,
    PriorityClass,
    parse_retry_after,
    wire_priority,
)
from repro.handles import Handle
from repro.ipc import MessageChannel
from repro.obs.context import SpanContext, current_context
from repro.rpc.batch import BatchQueue
from repro.rpc.fencing import current_fence, parse_leader_hint
from repro.rpc.resilience import (
    STALE_REMOTE_TYPES,
    RetryPolicy,
    remaining_deadline,
)
from repro.wire import (
    BatchMessage,
    CallMessage,
    CreditMessage,
    ExceptionMessage,
    Message,
    ReplyMessage,
    UpcallMessage,
)

logger = logging.getLogger(__name__)

#: How many posted-call serials we remember for out-of-band error
#: attribution (server stale notifications for batched posts).
_POSTED_MEMORY = 1024


class RpcConnection:
    """Client endpoint over one RPC channel."""

    def __init__(
        self,
        channel: MessageChannel,
        registry: BundlerRegistry,
        *,
        max_batch: int = 64,
        flush_delay: float | None = 0.0,
        adaptive_batch: bool = False,
        call_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        tracer=None,
        metrics=None,
        flow_credits: bool = False,
    ):
        self._channel = channel
        self._registry = registry
        self._call_timeout = call_timeout
        self._retry = retry
        self._tracer = tracer
        self._metrics = metrics
        self._serials = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        # The credit gate throttles batched posts to the server's grant.
        # It engages only when the caller opts in: a bare RpcConnection
        # (tests, a listener that never grants) stays unlimited.
        self._flow_credits = flow_credits
        self._credit_gate = CreditGate(
            unlimited=not flow_credits,
            send_probe=self._send_credit_probe,
            metrics=metrics,
            tracer=tracer,
            name="flow.credit",
            channel="rpc",
        )
        self._batch = BatchQueue(
            self._send_batch,
            max_batch=max_batch,
            flush_delay=flush_delay,
            adaptive=adaptive_batch,
            send_many=self._send_batches,
            credit_gate=self._credit_gate,
            metrics=metrics,
        )
        self._upcall_sink = None
        self._closed = False
        self._shutdown = False
        self._reconnector = None
        self._reconnect_lock = asyncio.Lock()
        self._disconnected = asyncio.Event()
        self._stale: set[tuple[int, int]] = set()
        self._posted: collections.OrderedDict[int, tuple[int, int]] = (
            collections.OrderedDict()
        )
        self._late_reply_logged = False
        self._reader = asyncio.get_running_loop().create_task(
            self._read_loop(), name="rpc-reader"
        )
        self.sync_calls = 0
        self.async_calls = 0
        self.reconnects = 0
        self.late_replies = 0
        self.overload_retries = 0
        self.overload_posts = 0

    async def _send_credit_probe(self, used_msgs: int, used_bytes: int) -> None:
        await self._channel.send(
            CreditMessage(msg_credit=used_msgs, byte_credit=used_bytes, probe=True)
        )

    @property
    def credit_gate(self) -> CreditGate:
        return self._credit_gate

    # -- CallEndpoint protocol ---------------------------------------------------

    @property
    def registry(self) -> BundlerRegistry:
        return self._registry

    async def call(
        self, handle: Handle, method: str, args: bytes, *, idempotent: bool = False
    ) -> bytes:
        """Synchronous remote call; returns the bundled reply payload.

        ``idempotent`` is the stub layer's declaration that re-sending
        this call is safe; only then does the retry policy apply.
        """
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_CLIENT_CALL

            with self._tracer.span(KIND_CLIENT_CALL, method) as ctx:
                return await self._call_inner(handle, method, args, ctx, idempotent)
        return await self._call_inner(
            handle, method, args, current_context(), idempotent
        )

    async def _call_inner(
        self,
        handle: Handle,
        method: str,
        args: bytes,
        ctx: SpanContext | None,
        idempotent: bool,
    ) -> bytes:
        self._check_stale(handle)
        # One serial for the whole logical call: every retry re-sends
        # it, and the server deduplicates on it, so a duplicated or
        # crossed retry can never execute twice.
        serial = next(self._serials)
        delays = (
            self._retry.delays() if (idempotent and self._retry is not None) else iter(())
        )
        # Overload sheds happen *before* execution, so retrying them is
        # safe regardless of idempotency declarations — they get their
        # own backoff budget, stretched to the server's hint.
        overload_delays = self._retry.delays() if self._retry is not None else iter(())
        while True:
            try:
                return await self._attempt(serial, handle, method, args, ctx)
            except (CallTimeoutError, ConnectionClosedError):
                delay = next(delays, None)
                if delay is None or self._shutdown:
                    raise
                budget = remaining_deadline()
                if budget is not None and budget <= delay:
                    raise  # no budget left to wait out the backoff
                if self._metrics is not None:
                    self._metrics.counter("rpc.client.retries").inc()
                await asyncio.sleep(delay)
            except ServerOverloadedError as exc:
                delay = next(overload_delays, None)
                if delay is None or self._shutdown:
                    raise
                delay = max(delay, exc.retry_after_ms / 1000.0)
                budget = remaining_deadline()
                if budget is not None and budget <= delay:
                    raise  # the hint outlives our deadline; give up now
                self.overload_retries += 1
                if self._metrics is not None:
                    self._metrics.counter("rpc.client.overload_retries").inc()
                await asyncio.sleep(delay)

    async def _attempt(
        self,
        serial: int,
        handle: Handle,
        method: str,
        args: bytes,
        ctx: SpanContext | None,
    ) -> bytes:
        if self._closed:
            await self._reconnect()
        # Ordering: everything queued before this call must arrive first.
        await self._batch.flush()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiting[serial] = future
        self.sync_calls += 1
        started = time.perf_counter() if self._metrics is not None else 0.0
        timeout, deadline_ms = self._effective_timeout(method)
        fence_epoch, fence_counter = self._fence_fields()
        message = CallMessage(
            serial=serial,
            oid=handle.oid,
            tag=handle.tag,
            method=method,
            args=args,
            expects_reply=True,
            trace_id=ctx.trace_id if ctx else "",
            parent_span=ctx.span_id if ctx else 0,
            deadline_ms=deadline_ms,
            priority=wire_priority(PriorityClass.SYNC),
            fence_epoch=fence_epoch,
            fence_counter=fence_counter,
        )
        try:
            await self._channel.send(message)
            if timeout is None:
                results = await future
            else:
                try:
                    results = await asyncio.wait_for(future, timeout)
                except asyncio.TimeoutError:
                    # The reply may still arrive; with the serial dropped
                    # from the table it will be counted as late and
                    # discarded.
                    raise CallTimeoutError(
                        f"no reply to {method!r} within {timeout}s"
                    ) from None
            if self._metrics is not None:
                self._metrics.histogram(f"rpc.client.call_us.{method}").observe(
                    (time.perf_counter() - started) * 1e6
                )
            return results
        except RemoteError as exc:
            raise self._surface_remote(handle, exc) from None
        finally:
            self._waiting.pop(serial, None)

    async def post(
        self, handle: Handle, method: str, args: bytes, *, nowait: bool = False
    ) -> None:
        """Asynchronous remote call; queued for batching, no reply.

        On a credit-gated connection, the post blocks
        while the server's window is exhausted; ``nowait=True`` raises
        :class:`~repro.errors.CreditExhaustedError` instead.
        """
        if self._closed and not self._shutdown and self._reconnector is not None:
            await self._reconnect()
        if self._closed:
            raise ConnectionClosedError("RPC connection is closed")
        self._check_stale(handle)
        self.async_calls += 1
        ctx = current_context()
        serial = next(self._serials)
        fence_epoch, fence_counter = self._fence_fields()
        message = CallMessage(
            serial=serial,
            oid=handle.oid,
            tag=handle.tag,
            method=method,
            args=args,
            expects_reply=False,
            trace_id=ctx.trace_id if ctx else "",
            parent_span=ctx.span_id if ctx else 0,
            priority=wire_priority(PriorityClass.BATCH),
            fence_epoch=fence_epoch,
            fence_counter=fence_counter,
        )
        # Remember where this serial was aimed so an out-of-band server
        # error (stale handle on a batched post) can be
        # pinned back on the right handle.
        self._posted[serial] = (handle.oid, handle.tag)
        while len(self._posted) > _POSTED_MEMORY:
            self._posted.popitem(last=False)
        await self._batch.post(message, nowait=nowait)

    async def flush(self) -> None:
        """The special synchronization procedure of §3.4."""
        await self._batch.flush()

    # -- deadlines and stale handles ----------------------------------------------

    def _effective_timeout(self, method: str) -> tuple[float | None, int]:
        """Local wait bound and its wire form (``deadline_ms``)."""
        timeout = self._call_timeout
        budget = remaining_deadline()
        if budget is not None:
            if budget <= 0:
                raise CallTimeoutError(
                    f"deadline already expired before calling {method!r}"
                )
            timeout = budget if timeout is None else min(timeout, budget)
        deadline_ms = 0 if timeout is None else max(1, int(timeout * 1000))
        return timeout, deadline_ms

    def _fence_fields(self) -> tuple[int, int]:
        """The ambient fencing token as wire fields (0/0 when unfenced)."""
        token = current_fence()
        if token is None:
            return 0, 0
        return token.epoch, token.counter

    def _check_stale(self, handle: Handle) -> None:
        if (handle.oid, handle.tag) in self._stale:
            raise RemoteStaleError(
                "StaleHandleError",
                f"handle (oid={handle.oid}) is stale on this client",
            )

    def mark_stale(self, handle: Handle) -> None:
        """Locally invalidate ``handle``; every later use fails fast.

        The builtin handle (0, 0) is never marked — it is not subject
        to revocation, and server-side ``StaleHandleError`` raised by a
        builtin procedure describes one of its *arguments*.
        """
        if handle.oid == 0 and handle.tag == 0:
            return
        self._stale.add((handle.oid, handle.tag))

    def is_stale(self, handle: Handle) -> bool:
        return (handle.oid, handle.tag) in self._stale

    def _surface_remote(self, handle: Handle, exc: RemoteError) -> Exception:
        """Fold remote faults into their typed local forms.

        Handle faults become :class:`RemoteStaleError`; server sheds
        become a local :class:`~repro.errors.ServerOverloadedError`
        with the ``retry_after_ms`` hint recovered from the message
        text, so the retry loop (and any caller) sees the typed error.
        """
        if exc.remote_type == "ServerOverloadedError":
            return ServerOverloadedError(
                exc.remote_message,
                retry_after_ms=parse_retry_after(exc.remote_message),
            )
        if exc.remote_type == "NotLeaderError":
            # A directory follower refused a write; the hint names the
            # leader to retry against (LeaderClient follows it).
            return NotLeaderError(
                exc.remote_message,
                leader_url=parse_leader_hint(exc.remote_message),
            )
        if exc.remote_type == "FencedWriteError":
            # Our token lost the race: the resource admitted a newer
            # lease holder.  Not retryable with this token.
            return FencedWriteError(exc.remote_message)
        if exc.remote_type not in STALE_REMOTE_TYPES:
            return exc
        self.mark_stale(handle)
        return RemoteStaleError(
            exc.remote_type, exc.remote_message, exc.remote_traceback
        )

    # -- internals -----------------------------------------------------------------

    async def _send_batch(self, batch: BatchMessage) -> None:
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_FLUSH

            self._tracer.point(KIND_FLUSH, "batch", detail=str(len(batch.calls)))
        if self._metrics is not None:
            self._metrics.histogram(
                "rpc.client.batch_flush_size",
                bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            ).observe(float(len(batch.calls)))
        await self._channel.send(batch)

    async def _send_batches(self, batches) -> None:
        """Coalesced flush: several batch messages, one channel write."""
        for batch in batches:
            if self._tracer is not None and self._tracer.active:
                from repro.trace import KIND_FLUSH

                self._tracer.point(KIND_FLUSH, "batch", detail=str(len(batch.calls)))
            if self._metrics is not None:
                self._metrics.histogram(
                    "rpc.client.batch_flush_size",
                    bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
                ).observe(float(len(batch.calls)))
        await self._channel.send_many(batches)

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await self._channel.recv()
                self._dispatch_reply(message)
        except ConnectionClosedError as exc:
            self._fail_all(exc)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # decoding errors poison the connection
            self._fail_all(ProtocolError(f"RPC channel corrupted: {exc}"))

    def set_upcall_sink(self, sink) -> None:
        """Accept inbound upcalls on this channel (single-stream mode).

        The paper gives each client a dedicated upcall stream (§4.4)
        because multiplexing "without typed messages ... is difficult";
        our messages are typed, so a single shared stream works too.
        ``sink`` receives each :class:`UpcallMessage` and must not
        block (schedule the handling on another task).
        """
        self._upcall_sink = sink

    @property
    def channel(self) -> MessageChannel:
        return self._channel

    def _dispatch_reply(self, message: Message) -> None:
        if isinstance(message, ReplyMessage):
            future = self._waiting.get(message.serial)
            if future is None:
                self._note_late_reply(message.serial)
            elif not future.done():
                future.set_result(message.results)
        elif isinstance(message, ExceptionMessage):
            future = self._waiting.get(message.serial)
            if future is None:
                self._note_async_failure(message)
            elif not future.done():
                future.set_exception(
                    RemoteError(message.remote_type, message.message, message.traceback)
                )
        elif isinstance(message, CreditMessage):
            # The server's grant for our batched-call window.  A probe
            # echoing back (should not happen on this stream) carries
            # usage, not a grant — merging it would inflate the window.
            if not message.probe:
                self._credit_gate.update(message.msg_credit, message.byte_credit)
        elif isinstance(message, UpcallMessage) and self._upcall_sink is not None:
            self._upcall_sink(message)
        else:
            self._fail_all(
                ProtocolError(f"unexpected message on RPC channel: {message!r}")
            )

    def _note_late_reply(self, serial: int) -> None:
        """A reply for a call nobody is waiting on any more.

        Most commonly the call timed out (its serial was popped from the
        table) and the reply straggled in afterwards.  Silently eating
        it hides real latency problems, so it is counted — and logged
        once per connection, not once per straggler.
        """
        self.late_replies += 1
        if self._metrics is not None:
            self._metrics.counter("rpc.client.late_replies").inc()
        if not self._late_reply_logged:
            self._late_reply_logged = True
            logger.warning(
                "discarding late reply for serial %d on %s "
                "(further late replies are counted, not logged)",
                serial,
                self._channel.peer,
            )

    def _note_async_failure(self, message: ExceptionMessage) -> None:
        """Out-of-band server error for a call with no waiting future.

        The server reports handle faults in *batched posts* this way; the serial maps back to the handle the post targeted,
        which is then marked stale so the next use of that proxy raises
        :class:`~repro.errors.RemoteStaleError`.  Anything else is a
        straggler from a timed-out call.
        """
        target = self._posted.pop(message.serial, None)
        if target is not None and message.remote_type in STALE_REMOTE_TYPES:
            self.mark_stale(Handle(oid=target[0], tag=target[1]))
            if self._metrics is not None:
                self._metrics.counter("rpc.client.stale_posts").inc()
        elif target is not None and message.remote_type == "ServerOverloadedError":
            # A batched post shed by admission control.  Nothing waits on
            # it, so the loss is counted rather than raised; the handle
            # stays healthy (the server never executed anything).
            self.overload_posts += 1
            if self._metrics is not None:
                self._metrics.counter("rpc.client.overload_posts").inc()
        else:
            self._note_late_reply(message.serial)

    def _fail_all(self, exc: Exception) -> None:
        self._closed = True
        self._disconnected.set()
        self._credit_gate.fail(exc)
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(exc)
        self._waiting.clear()

    # -- reconnect ----------------------------------------------------------------

    def set_reconnector(self, reconnector) -> None:
        """Install the coroutine that re-establishes this connection.

        ``reconnector()`` must re-dial, redo the HELLO exchange, and
        call :meth:`adopt_channel` with the fresh channel (raising on
        failure).  The client runtime owns that logic; installing it
        here lets a call-path retry trigger reconnection on demand.
        """
        self._reconnector = reconnector

    def adopt_channel(self, channel: MessageChannel) -> None:
        """Swap in a freshly negotiated channel after a reconnect.

        Proxies keep pointing at this endpoint, so they survive the
        swap; so does the queued batch — posts accepted before the
        disconnect flush to the new channel.
        """
        if self._reader is not None and not self._reader.done():
            self._reader.cancel()
        self._channel = channel
        self._closed = False
        self._disconnected.clear()
        # The server's flow state restarted with the channel; cumulative
        # credit arithmetic starts over (a fresh grant follows HELLO).
        self._credit_gate.reset(unlimited=not self._flow_credits)
        self.reconnects += 1
        if self._metrics is not None:
            self._metrics.counter("rpc.client.reconnects").inc()
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_RECONNECT

            self._tracer.point(KIND_RECONNECT, "rpc", detail=channel.peer)
        self._reader = asyncio.get_running_loop().create_task(
            self._read_loop(), name="rpc-reader"
        )

    async def _reconnect(self) -> None:
        """Bring the connection back up, or raise why we cannot."""
        async with self._reconnect_lock:
            if self._shutdown:
                raise ConnectionClosedError("RPC connection closed")
            if not self._closed:
                return  # somebody else already reconnected
            if self._reconnector is None:
                raise ConnectionClosedError("RPC connection is closed")
            await self._reconnector()
            if self._closed:
                raise ConnectionClosedError("reconnect did not produce a channel")

    @property
    def disconnected(self) -> asyncio.Event:
        """Set while the connection is down (used by supervisors)."""
        return self._disconnected

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def batch(self) -> BatchQueue:
        return self._batch

    async def close(self) -> None:
        """Flush what we can, stop the reader, close the channel."""
        self._shutdown = True
        if not self._closed:
            try:
                await self._batch.flush()
            except ConnectionClosedError:
                pass
        self._batch.cancel_timer()
        self._closed = True
        await self._channel.close()
        self._reader.cancel()
        try:
            await self._reader
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_all(ConnectionClosedError("RPC connection closed"))

    async def __aenter__(self) -> "RpcConnection":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

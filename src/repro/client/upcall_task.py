"""The client's upcall task (paper §4.4).

"The second task handles all upcalls.  The second task is initially
blocked, and is unblocked on receipt of an upcall.  After handling
the event, any return value is sent back to the server, and then the
task is blocked again."

:class:`UpcallService` is that task's body.  With the default
``max_active=1`` it is a strictly sequential recv → invoke → reply
loop — the client half of the §4.4 discipline that at most one upcall
is active per client process (the server half is the session's
slots).  With ``max_active > 1`` — the relaxation the paper leaves to
"future designs" — up to that many upcalls are handled concurrently,
each on its own task, which pays off when handlers block (e.g. make
RPCs back into the server).
"""

from __future__ import annotations

import asyncio
import collections
import time
import traceback

from repro.errors import ConnectionClosedError, ProtocolError
from repro.core import CallbackTable
from repro.flow import (
    DEFAULT_WINDOW_BYTES,
    DEFAULT_WINDOW_MSGS,
    CreditLedger,
    message_cost,
)
from repro.ipc import MessageChannel
from repro.obs.context import SpanContext, using_context
from repro.obs.stages import STAGE_DISPATCH, STAGE_HANDLER, StageTimer
from repro.tasks import Slots
from repro.wire import (
    CreditMessage,
    UpcallExceptionMessage,
    UpcallMessage,
    UpcallReplyMessage,
)


class UpcallService:
    """Services the upcall channel: the client's second task."""

    def __init__(
        self,
        channel: MessageChannel,
        callbacks: CallbackTable,
        *,
        max_active: int = 1,
        tracer=None,
        metrics=None,
    ):
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        self._channel = channel
        self._callbacks = callbacks
        self._tracer = tracer
        self._metrics = metrics
        # Client halves of the stage clocks (repro.obs.stages): frame
        # arrival → RUC procedure entry, and the procedure body itself.
        self._stages = StageTimer(metrics) if metrics is not None else None
        self._max_active = max_active
        self._slots = Slots(max_active)
        self._handlers: set[asyncio.Task] = set()
        # Sequential mode reads eagerly and drains this backlog on one
        # task: the reader stamps honest arrival times (a coalesced
        # batch lands all at once) while the single drainer preserves
        # the §4.4 handle-reply-block discipline.
        self._backlog: collections.deque[tuple[UpcallMessage, float]] = (
            collections.deque()
        )
        self._drainer: asyncio.Task | None = None
        self._ledger: CreditLedger | None = None
        # Serials recently accepted, the upcall mirror of the server
        # dispatcher's duplicate cache: a frame duplicated in flight
        # must not run the handler twice.  Bounded; old entries age out.
        self._seen_serials: collections.OrderedDict[int, None] = (
            collections.OrderedDict()
        )
        self._dedup_window = 512
        self.upcalls_handled = 0
        self.upcalls_failed = 0
        self.duplicate_upcalls = 0
        self.max_concurrency_seen = 0
        self._active = 0

    @property
    def max_active(self) -> int:
        return self._max_active

    # -- upcall-stream credits (dedicated stream only) ------------------------------

    def enable_credits(
        self,
        *,
        window_msgs: int = DEFAULT_WINDOW_MSGS,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
    ) -> None:
        """Start granting the server an upcall window on this stream.

        Called (and re-called after every reconnect: cumulative credit
        arithmetic restarts with the channel) by the client runtime on
        two-stream connections; :meth:`announce_credits` must follow
        to send the initial grant that engages the server's gate.
        """
        self._ledger = CreditLedger(
            self._send_grant,
            window_msgs=window_msgs,
            window_bytes=window_bytes,
            metrics=self._metrics,
            tracer=self._tracer,
            name="flow.credit",
            channel="upcall",
        )

    async def announce_credits(self) -> None:
        if self._ledger is not None:
            await self._ledger.announce()

    async def _send_grant(self, msg_credit: int, byte_credit: int) -> None:
        await self._send_safely(
            CreditMessage(msg_credit=msg_credit, byte_credit=byte_credit)
        )

    def adopt_channel(self, channel: MessageChannel) -> None:
        """Point the service at a freshly opened upcall stream.

        Used on reconnect: the old stream is dead (its :meth:`run` loop
        has returned or soon will), registrations in the callback table
        survive, and a new ``run()`` task should be started on the new
        channel by the caller.  The old stream is closed so its server
        end detaches promptly.
        """
        old, self._channel = self._channel, channel
        # A non-resumed reconnect restarts the server's serial counter,
        # so remembered serials would wrongly shadow fresh upcalls.
        self._seen_serials.clear()
        if old is not None and not old.closed:
            asyncio.get_running_loop().create_task(old.close())

    async def close(self) -> None:
        await self._channel.close()
        tasks = list(self._handlers)
        if self._drainer is not None and not self._drainer.done():
            tasks.append(self._drainer)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def run(self) -> None:
        """Loop until the channel closes; never raises on handler errors."""
        try:
            while True:
                message = await self._channel.recv()
                if isinstance(message, CreditMessage):
                    # The server probing for a possibly-lost grant; the
                    # answer (current cumulative grant) is idempotent.
                    if message.probe:
                        if self._ledger is not None:
                            # Write off upcall frames lost in transit so
                            # dropped frames cannot strangle the window.
                            # Frames read but not yet drained are held,
                            # not lost: the sequential backlog, and
                            # handlers mid-flight (``_active``), whose
                            # byte share is small enough to write off
                            # early (they drain right after).
                            self._ledger.reconcile(
                                message.msg_credit,
                                message.byte_credit,
                                held_msgs=self._active + len(self._backlog),
                                held_bytes=sum(
                                    message_cost(held.args)
                                    for held, _ in self._backlog
                                ),
                            )
                        await self.announce_credits()
                    continue
                if not isinstance(message, UpcallMessage):
                    raise ProtocolError(
                        f"unexpected message on upcall channel: {message!r}"
                    )
                received_at = (
                    time.perf_counter() if self._stages is not None else 0.0
                )
                if self._max_active == 1:
                    # The paper's discipline — handle, reply, block
                    # again — lives in the single drainer task; the
                    # reader keeps consuming so a coalesced batch's
                    # frames get arrival stamps when they *arrive*,
                    # not when their turn comes (the wait in between
                    # is the dispatch stage).
                    self._backlog.append((message, received_at))
                    if self._drainer is None or self._drainer.done():
                        self._drainer = asyncio.get_running_loop().create_task(
                            self._drain_backlog()
                        )
                else:
                    task = asyncio.get_running_loop().create_task(
                        self._handle_guarded(message, received_at=received_at)
                    )
                    self._handlers.add(task)
                    task.add_done_callback(self._handlers.discard)
        except ConnectionClosedError:
            return

    async def _drain_backlog(self) -> None:
        """Sequential-mode worker: one upcall at a time, FIFO."""
        while self._backlog:
            message, received_at = self._backlog.popleft()
            await self._handle(message, received_at=received_at)

    def accept(self, message: UpcallMessage, reply_channel: MessageChannel | None = None) -> None:
        """Entry point for upcalls arriving on a *shared* stream.

        Used by single-stream clients for all upcalls, and by
        two-stream clients when the server fell back to the RPC stream
        because the dedicated upcall channel died.  Handling runs on
        its own task so the stream's reader never blocks, and the
        reply returns on the stream the upcall arrived on.
        """
        received_at = time.perf_counter() if self._stages is not None else 0.0
        task = asyncio.get_running_loop().create_task(
            self._handle_guarded(message, reply_channel, received_at=received_at)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle_guarded(
        self,
        message: UpcallMessage,
        reply_channel: MessageChannel | None = None,
        *,
        received_at: float = 0.0,
    ) -> None:
        async with self._slots:
            await self._handle(message, reply_channel, received_at=received_at)

    async def _handle(
        self,
        message: UpcallMessage,
        reply_channel: MessageChannel | None = None,
        *,
        received_at: float = 0.0,
    ) -> None:
        """One upcall: look up the procedure, run it, send the result back.

        A handler exception travels to the server as an upcall
        exception — the server task blocked in the RUC object sees it
        as a RemoteError.  The reply goes back on ``reply_channel``
        when given (shared-stream arrivals), else the service's own.
        """
        if message.serial in self._seen_serials:
            # A duplicated frame (flaky transport): the first copy runs
            # (or ran) the handler and owns the reply; this one is noise.
            self.duplicate_upcalls += 1
            if self._metrics is not None:
                self._metrics.counter("upcall.client.duplicates").inc()
            return
        self._seen_serials[message.serial] = None
        while len(self._seen_serials) > self._dedup_window:
            self._seen_serials.popitem(last=False)
        self._active += 1
        self.max_concurrency_seen = max(self.max_concurrency_seen, self._active)
        try:
            try:
                payload = await self._execute(message, received_at)
            except Exception as exc:
                self.upcalls_failed += 1
                if message.expects_reply:
                    await self._send_safely(
                        UpcallExceptionMessage(
                            serial=message.serial,
                            remote_type=type(exc).__name__,
                            message=str(exc),
                            traceback=traceback.format_exc(),
                        ),
                        reply_channel,
                    )
                return
            finally:
                self._active -= 1
            self.upcalls_handled += 1
            if message.expects_reply:
                await self._send_safely(
                    UpcallReplyMessage(serial=message.serial, results=payload),
                    reply_channel,
                )
        finally:
            # The upcall is absorbed either way (handled or failed):
            # re-grant the server's window.  Only arrivals on the
            # credited dedicated stream count — shared-stream upcalls
            # (``reply_channel`` set) were never gated.
            if self._ledger is not None and reply_channel is None:
                await self._ledger.drained(message_cost(message.args))

    async def _execute(
        self, message: UpcallMessage, received_at: float = 0.0
    ) -> bytes:
        """Run the RUC procedure inside the server's trace context.

        The span opened here is the leaf of the distributed tree: its
        parent is the server's upcall span, carried over by the UPCALL
        frame's ``trace_id``/``parent_span`` fields.  A handler that
        makes RPCs back into the server extends the same trace further.
        """
        remote = (
            SpanContext(trace_id=message.trace_id, span_id=message.parent_span)
            if message.trace_id
            else None
        )
        started = time.perf_counter() if self._metrics is not None else 0.0
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_UPCALL_EXEC

            with self._tracer.span(
                KIND_UPCALL_EXEC, f"ruc-{message.ruc_id}", parent=remote
            ):
                payload = await self._execute_inner(message, received_at)
        elif remote is not None:
            with using_context(remote):
                payload = await self._execute_inner(message, received_at)
        else:
            payload = await self._execute_inner(message, received_at)
        if self._metrics is not None:
            self._metrics.histogram("upcall.client.exec_us").observe(
                (time.perf_counter() - started) * 1e6
            )
        return payload

    async def _execute_inner(
        self, message: UpcallMessage, received_at: float = 0.0
    ) -> bytes:
        proc, signature = self._callbacks.look_up(message.ruc_id)
        args = signature.unbundle_args(message.args)
        stages = self._stages
        if stages is not None:
            # Dispatch stage ends where the RUC procedure begins; the
            # handler stage is the procedure body itself (§4.3: the
            # server task stays blocked for exactly this long).
            t_entry = time.perf_counter()
            if received_at:
                stages.observe(STAGE_DISPATCH, (t_entry - received_at) * 1e6)
        result = proc(*args)
        if hasattr(result, "__await__"):
            result = await result
        if stages is not None:
            stages.observe(
                STAGE_HANDLER, (time.perf_counter() - t_entry) * 1e6
            )
        return signature.bundle_result(result)

    async def _send_safely(self, message, reply_channel: MessageChannel | None = None) -> None:
        try:
            await (reply_channel or self._channel).send(message)
        except ConnectionClosedError:
            pass

"""The server's flow controller: one budget across every layer.

A :class:`FlowController` lives on the server (one per
:class:`~repro.server.ClamServer`) and hands each RPC channel a
:class:`ChannelFlow` when it attaches.  The channel flow does three
jobs at the dispatcher boundary:

- **admission** — every call is judged by the shared
  :class:`~repro.flow.AdmissionChain` before dispatch; a shed raises
  :class:`~repro.errors.ServerOverloadedError` (with the
  ``retry_after_ms`` hint packed for the wire) and the dispatcher
  answers without executing anything.
- **credit granting** — the batched-call window: an
  initial grant right after HELLO, a fresh cumulative grant every
  half-window of drained asynchronous calls, and an idempotent
  re-announcement for every CREDIT probe (see
  :class:`~repro.flow.CreditLedger`).
- **accounting** — queue-wait and service-time samples feed the
  adaptive policies and the ``flow.*`` instruments; the per-channel
  in-flight peak (received minus drained) is the measurable form of
  the "server queue memory stays bounded" guarantee.

State is deliberately *per channel*, not per session: a reconnect
replaces the channel, and cumulative credit arithmetic must restart
with it (the client resets its gate when it adopts the new channel).
"""

from __future__ import annotations

import time

from repro.flow.admission import (
    AdmissionPolicy,
    AdmissionRequest,
    overloaded,
)
from repro.flow.credits import (
    DEFAULT_WINDOW_BYTES,
    DEFAULT_WINDOW_MSGS,
    CreditLedger,
    message_cost,
)
from repro.flow.priority import PriorityClass, classify
from repro.wire import CallMessage, CreditMessage


class FlowController:
    """Server-wide flow state: admission chain, windows, instruments."""

    def __init__(
        self,
        *,
        admission: AdmissionPolicy | None = None,
        window_msgs: int = DEFAULT_WINDOW_MSGS,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        metrics=None,
        tracer=None,
    ):
        self.admission = admission
        self.window_msgs = window_msgs
        self.window_bytes = window_bytes
        self.metrics = metrics
        self.tracer = tracer
        #: Calls admitted and not yet finished, across all sessions —
        #: the queue_depth adaptive policies judge against.
        self.active = 0
        self.admitted = 0
        self.shed = 0
        #: Rolling shed share for load advertising: (shed, admitted)
        #: since the last :meth:`shed_rate` sample.
        self._window_shed = 0
        self._window_admitted = 0

    def channel_flow(self, channel) -> "ChannelFlow":
        """Per-channel state for one freshly attached RPC stream."""
        return ChannelFlow(self, channel)

    def shed_rate(self) -> float:
        """Share of calls shed since last sampled; resets the window.

        Exposed so load advertisers can fold overload into the figure
        replicas gossip (``LeastLoaded`` then steers around servers
        that are shedding).
        """
        total = self._window_shed + self._window_admitted
        rate = self._window_shed / total if total else 0.0
        self._window_shed = 0
        self._window_admitted = 0
        return rate

    # -- verdicts -----------------------------------------------------------------

    def judge(self, request: AdmissionRequest) -> float | None:
        if self.admission is None or not self.admission.applies_to(request):
            return None
        return self.admission.judge(request)

    def note_admitted(self, request: AdmissionRequest) -> None:
        self.active += 1
        self.admitted += 1
        self._window_admitted += 1
        if self.admission is not None:
            self.admission.note_start(request)
        if self.metrics is not None:
            self.metrics.counter("flow.admission.admitted").inc()

    def note_shed(self, request: AdmissionRequest, retry_after: float) -> None:
        self.shed += 1
        self._window_shed += 1
        if self.metrics is not None:
            self.metrics.counter("flow.admission.shed").inc()
            self.metrics.counter(
                f"flow.admission.shed.{request.priority.name.lower()}"
            ).inc()
        if self.tracer is not None and self.tracer.active:
            from repro.trace import KIND_FLOW

            self.tracer.point(
                KIND_FLOW,
                f"shed {request.method}",
                detail=f"retry_after={retry_after * 1000:.0f}ms",
            )

    def note_finished(
        self, request: AdmissionRequest, queue_wait: float, service_time: float
    ) -> None:
        self.active = max(0, self.active - 1)
        if self.admission is not None:
            self.admission.note_finish(request, queue_wait, service_time)
        if self.metrics is not None:
            self.metrics.histogram("flow.queue_wait_us").observe(queue_wait * 1e6)


class ChannelFlow:
    """One RPC channel's admission bracket and credit ledger."""

    def __init__(self, controller: FlowController, channel):
        self.controller = controller
        self.channel = channel
        self.ledger = CreditLedger(
            self._send_grant,
            window_msgs=controller.window_msgs,
            window_bytes=controller.window_bytes,
            metrics=controller.metrics,
            tracer=controller.tracer,
            name="flow.credit",
            channel="rpc",
        )
        #: Asynchronous calls received minus drained, and the peak —
        #: the bound the credit window enforces on this channel.
        self.inflight = 0
        self.inflight_bytes = 0
        self.max_inflight = 0
        self._started: dict[int, tuple[AdmissionRequest, float]] = {}

    async def _send_grant(self, msg_credit: int, byte_credit: int) -> None:
        try:
            await self.channel.send(
                CreditMessage(msg_credit=msg_credit, byte_credit=byte_credit)
            )
        except Exception:
            # Channel mid-teardown.  The producer's gate is resolved by
            # its own reconnect/close path, never by a lost grant — and
            # losing one must not mask the call outcome being reported.
            pass

    # -- credits ------------------------------------------------------------------

    async def announce(self) -> None:
        """Initial grant / probe answer."""
        await self.ledger.announce()

    async def probed(self, message: CreditMessage) -> None:
        """Answer a producer probe, repairing loss-leaked window first.

        The probe carries the producer's cumulative usage; whatever we
        neither drained nor currently hold was lost in transit and is
        written off (see :meth:`CreditLedger.reconcile`) so dropped
        frames can never strangle the window.
        """
        self.ledger.reconcile(
            message.msg_credit,
            message.byte_credit,
            held_msgs=self.inflight,
            held_bytes=self.inflight_bytes,
        )
        await self.ledger.announce()

    def note_received(self, call: CallMessage) -> None:
        """An asynchronous call arrived (frame decoded, not yet run)."""
        if call.expects_reply:
            return
        self.inflight += 1
        self.inflight_bytes += message_cost(call.args)
        self.max_inflight = max(self.max_inflight, self.inflight)

    async def note_drained(self, call: CallMessage) -> None:
        """An asynchronous call was absorbed (run or shed): re-grant."""
        if call.expects_reply:
            return
        self.inflight = max(0, self.inflight - 1)
        self.inflight_bytes = max(0, self.inflight_bytes - message_cost(call.args))
        await self.ledger.drained(message_cost(call.args))

    # -- admission ----------------------------------------------------------------

    def _request(self, call: CallMessage) -> AdmissionRequest:
        natural = PriorityClass.SYNC if call.expects_reply else PriorityClass.BATCH
        return AdmissionRequest(
            method=call.method,
            priority=classify(call.priority, natural),
            deadline_ms=call.deadline_ms,
            queue_depth=self.controller.active,
            cost_bytes=message_cost(call.args),
        )

    def admit(self, call: CallMessage, arrived: float) -> None:
        """Judge one call; raises ServerOverloadedError on a shed.

        Must be paired with :meth:`finish` (same serial) when it
        returns; the pair brackets the adaptive policies' view of
        in-flight work.
        """
        request = self._request(call)
        retry_after = self.controller.judge(request)
        if retry_after is not None:
            self.controller.note_shed(request, retry_after)
            raise overloaded(call.method, retry_after)
        self.controller.note_admitted(request)
        self._started[call.serial] = (request, arrived)

    def finish(self, call: CallMessage, queue_wait: float) -> None:
        entry = self._started.pop(call.serial, None)
        if entry is None:
            return
        request, arrived = entry
        service_time = time.monotonic() - arrived - queue_wait
        self.controller.note_finished(request, queue_wait, max(0.0, service_time))

"""Batching of asynchronous calls (paper §3.4).

"When no return values are needed, the remote call can be delayed,
and put in a batch with other calls. ... Batching reduces the amount
of interprocess communication, and introduces asynchrony into the RPC
model."

Flush triggers, in the paper's terms:

1. a synchronous call — "call a procedure that returns a value" —
   flushes the pending batch ahead of itself so ordering holds;
2. the explicit synchronization procedure — :meth:`BatchQueue.flush`;
3. a full batch (``max_batch`` calls);
4. a flush timer (``flush_delay`` seconds after the first queued
   call), so asynchronous calls never linger unboundedly.  Set
   ``flush_delay=None`` for the strict paper behaviour where only
   (1)–(3) flush.

Two load-dependent behaviours sharpen the §3.4 fewer-frames-per-call
claim:

- *Adaptive sizing* (``adaptive=True``): ``max_batch`` is not a fixed
  guess but tracks observed flush occupancy with an EWMA — sustained
  full flushes double it (more amortization), sustained near-empty
  flushes halve it (less latency padding), within
  ``[min_batch, max_batch_limit]``.
- *Coalesced writes*: calls that arrive while a flush is awaiting the
  transport are drained by that same flush into additional
  :class:`BatchMessage` chunks and handed to ``send_many`` — one
  writev-style channel write — instead of queueing another
  lock-serialized flush per chunk.

The queue counts frames and calls so the §3.4 claim — fewer messages
per call — is measurable (``benchmarks/test_batching.py``).
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable, Sequence

from repro.errors import ConnectionClosedError
from repro.flow import CreditGate, message_cost
from repro.wire import BatchMessage, CallMessage

logger = logging.getLogger(__name__)

SendFn = Callable[[BatchMessage], Awaitable[None]]
SendManyFn = Callable[[Sequence[BatchMessage]], Awaitable[None]]

#: EWMA smoothing for flush occupancy and the thresholds that trigger
#: a resize.  After a resize the average restarts at neutral so one
#: burst cannot double the batch twice in a row.
_EWMA_ALPHA = 0.3
_GROW_AT = 0.85
_SHRINK_AT = 0.25
_NEUTRAL = 0.5


class BatchQueue:
    """Accumulates asynchronous calls into single wire messages."""

    def __init__(
        self,
        send: SendFn,
        *,
        max_batch: int = 64,
        flush_delay: float | None = 0.0,
        adaptive: bool = False,
        min_batch: int = 4,
        max_batch_limit: int = 1024,
        send_many: SendManyFn | None = None,
        credit_gate: CreditGate | None = None,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if adaptive and not 1 <= min_batch <= max_batch <= max_batch_limit:
            raise ValueError(
                "adaptive batching needs 1 <= min_batch <= max_batch <= max_batch_limit"
            )
        self._send = send
        self._send_many = send_many
        self._credit_gate = credit_gate
        self._metrics = metrics
        self._max_batch = max_batch
        self._flush_delay = flush_delay
        self._adaptive = adaptive
        self._min_batch = min_batch
        self._max_batch_limit = max_batch_limit
        self._occupancy_ewma = _NEUTRAL
        self._pending: list[CallMessage] = []
        self._timer: asyncio.TimerHandle | None = None
        self._timer_tasks: set[asyncio.Task] = set()
        self._flushing = asyncio.Lock()
        self.calls_queued = 0
        self.frames_sent = 0
        self.coalesced_writes = 0
        self.grow_events = 0
        self.shrink_events = 0
        #: Last exception raised by a timer-triggered flush (other than
        #: the connection simply being closed), for callers that want to
        #: surface it; also logged when it happens.
        self.last_timer_error: BaseException | None = None

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def max_batch(self) -> int:
        """Current batch-size cap (varies when ``adaptive=True``)."""
        return self._max_batch

    async def post(self, call: CallMessage, *, nowait: bool = False) -> None:
        """Queue one asynchronous call; may trigger a size-based flush.

        With a credit gate attached, the post first
        acquires window for the call — blocking while the server's
        grant is exhausted, which is how a slow server stalls the
        producer instead of queueing unboundedly.  ``nowait=True``
        turns that stall into an immediate
        :class:`~repro.errors.CreditExhaustedError` for callers that
        prefer to shed locally.
        """
        if self._credit_gate is not None:
            await self._credit_gate.acquire(message_cost(call.args), nowait=nowait)
        self._pending.append(call)
        self.calls_queued += 1
        if len(self._pending) >= self._max_batch:
            await self.flush()
        elif self._flush_delay is not None and self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self._flush_delay, self._timer_fire, loop)

    def _timer_fire(self, loop: asyncio.AbstractEventLoop) -> None:
        """Timer callback: run the flush as a *tracked* task.

        A bare ``loop.create_task(self.flush())`` would drop the only
        reference — the task could be garbage-collected mid-flight and
        any exception it raised would vanish.  The set keeps the task
        alive; the done-callback surfaces failures.
        """
        task = loop.create_task(self.flush(), name="batch-timer-flush")
        self._timer_tasks.add(task)
        task.add_done_callback(self._timer_done)

    def _timer_done(self, task: asyncio.Task) -> None:
        self._timer_tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None or isinstance(exc, ConnectionClosedError):
            # A timer racing connection teardown is expected noise.
            return
        self.last_timer_error = exc
        if self._metrics is not None:
            self._metrics.counter("flow.batch.timer_errors").inc()
        logger.error("batch timer flush failed", exc_info=exc)

    async def flush(self) -> None:
        """Send everything pending as batch message(s) (the sync procedure).

        Pending calls are drained into chunks of at most ``max_batch``;
        multiple chunks (possible when calls were posted while an
        earlier flush awaited the transport) go out through
        ``send_many`` as one coalesced write when available.
        """
        async with self._flushing:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if not self._pending:
                return
            if self._adaptive:
                self._adapt(len(self._pending))
            cap = self._max_batch
            pending = self._pending
            batches = [
                BatchMessage(calls=tuple(pending[i:i + cap]))
                for i in range(0, len(pending), cap)
            ]
            pending.clear()
            self.frames_sent += len(batches)
            if len(batches) == 1 or self._send_many is None:
                for batch in batches:
                    await self._send(batch)
            else:
                self.coalesced_writes += 1
                await self._send_many(batches)

    def _adapt(self, drained: int) -> None:
        """Track flush occupancy; resize ``max_batch`` on sustained signal."""
        occupancy = min(1.0, drained / self._max_batch)
        self._occupancy_ewma += _EWMA_ALPHA * (occupancy - self._occupancy_ewma)
        if self._occupancy_ewma >= _GROW_AT and self._max_batch < self._max_batch_limit:
            self._max_batch = min(self._max_batch * 2, self._max_batch_limit)
            self._occupancy_ewma = _NEUTRAL
            self.grow_events += 1
        elif self._occupancy_ewma <= _SHRINK_AT and self._max_batch > self._min_batch:
            self._max_batch = max(self._max_batch // 2, self._min_batch)
            self._occupancy_ewma = _NEUTRAL
            self.shrink_events += 1

    def cancel_timer(self) -> None:
        """Drop any scheduled timer flush (used at connection close)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

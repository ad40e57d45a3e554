"""Fan-out upcall groups: one event source, many subscribers.

The paper's RUC is one procedure pointer per registration (§3.5.2, §4);
an :class:`UpcallGroup` turns one ``post()`` into a delivery to each of
many, never blocking the publisher: ``post()`` only enqueues, and a full
queue meets the ``slow_policy`` (``"drop"`` the new event, ``"coalesce"``
the backlog, ``"evict"`` the subscriber).  One pump per subscriber takes
its backlog as one batch down **one** delivery path — a batch-capable
RUC gets one ``send_upcall_batch`` flush (one §4.4 slot, one credit
pass, one write), a local callable the same ``events → outcomes`` shape
— and **one** ledger, :meth:`UpcallGroup._settle`, settles the outcomes.
Each event is marshalled once; its caches are shared by all subscribers.
The core only calls the hooks of :class:`_Subscriber`; durable
subscriptions are a kind behind them, in :mod:`repro.cluster.durable`.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import time
from typing import Any, Callable

from repro.errors import FlushTimeoutError, SlowSubscriberError, StoreError
from repro.errors import TransportError, UpcallError
from repro.flow import BoundedQueue, Outcome
from repro.obs.profile import set_layer
from repro.obs.stages import STAGE_ENQUEUE, STAGE_QUEUE, StageTimer

#: Accepted slow-subscriber policies (the :mod:`repro.flow.bounded` set).
SLOW_POLICIES = ("drop", "coalesce", "evict")

#: Failures that mean the delivery path itself is dead (client gone, no channel).
DEAD_PATH = (UpcallError, TransportError)

#: The aggregate counters, in events, in the order ``stats()`` lists them.
_COUNTERS = ("posts", "delivered", "dropped", "coalesced", "evicted_subscribers",
             "evicted_events", "errors", "parks", "resumes", "spilled", "replayed")


class _Event:
    """One posted event, shared by every queue: ``payloads`` maps a signature's
    ``payload_key`` to bundled arguments, ``frames`` caches the session's
    frame templates, so the first delivery marshals for all subscribers."""

    __slots__ = ("args", "t_post", "payloads", "frames")

    def __init__(self, args: tuple, t_post: float):
        self.args = args
        self.t_post = t_post
        self.payloads: dict = {}
        self.frames: dict = {}

    def payload_for(self, signature) -> bytes:
        key = signature.payload_key
        payload = self.payloads.get(key)
        if payload is None:
            payload = self.payloads[key] = signature.bundle_args(self.args)
        return payload


class _Subscriber:
    """One registered procedure: queue, pump task, counter, and the hooks
    the core calls — the whole interface a subscriber kind overrides."""

    __slots__ = ("key", "proc", "queue", "wakeup", "idle", "asleep", "task", "delivered", "alive")

    def __init__(self, key: int, proc: Callable[..., Any], limit: int, policy: str):
        self.key = key
        self.proc = proc
        self.queue: BoundedQueue[_Event] = BoundedQueue(limit, policy=policy)
        self.wakeup = asyncio.Event()
        self.idle = asyncio.Event()
        self.idle.set()
        self.asleep = False  # the pump waits on ``wakeup``: posts must set it
        self.task: asyncio.Task | None = None
        self.delivered = 0
        self.alive = True

    def offer(self, event: _Event) -> tuple[Outcome, int]:
        """Queue one posted event under the slow policy."""
        return self.queue.offer(event)

    def take(self) -> list[_Event]:
        """The next batch to deliver; empty when there is nothing to do."""
        return self.queue.pop_all()

    def send(self, events: list[_Event]):
        """Deliver a batch; awaits to one outcome per event, in order."""
        proc = self.proc
        signature = getattr(proc, "signature", None)
        batch_send = getattr(getattr(proc, "sender", None), "send_upcall_batch", None)
        if batch_send is None or signature is None:
            return self._call_each(events)
        items = [(event.payload_for(signature), event.frames) for event in events]
        return batch_send(getattr(proc, "callback_id", 0), items)

    async def _call_each(self, events: list[_Event]) -> list:
        """The local adapter: one awaited call per event, an exception is
        that event's outcome; stops at the first dead path or on detach."""
        outcomes: list = []
        for event in events:
            if not self.alive:
                break
            try:
                result = self.proc(*event.args)
                if inspect.isawaitable(result):
                    await result
            except DEAD_PATH as exc:
                outcomes.append(exc)
                break
            except Exception as exc:
                outcomes.append(exc)
            else:
                outcomes.append(None)
        return outcomes

    def report(self, exc: Exception) -> bool:
        """Offer a failure to the §4.3 error port (a RUC's session, which
        absorbs it under ``degrade_upcalls``); True if it was absorbed."""
        report = getattr(getattr(self.proc, "sender", None), "report_upcall_failure", None)
        try:
            return report is not None and bool(report(getattr(self.proc, "callback_id", 0), exc))
        except Exception:
            return False

    def absorbs(self, exc: Exception) -> bool:
        """Whether a failed event degrades to a no-op, as a void RemoteUpcall
        does: no result is owed and the error port absorbs the report."""
        result_type = getattr(getattr(self.proc, "signature", None), "result_type", None)
        return result_type is type(None) and self.report(exc)

    def settled(self, events: list[_Event], count: int) -> None:
        """The first ``count`` events of the batch in hand have settled."""

    def fail(self, group: UpcallGroup, exc: Exception, rest: list[_Event]) -> None:
        """The delivery path died at ``rest[0]``: leave the group."""
        group._evict(self, exc)

    def detach(self) -> None:
        """Stop the pump; the subscriber has already left the group."""
        self.alive = False
        self.queue.clear()
        self.idle.set()
        self.asleep = False
        self.wakeup.set()  # let the pump observe alive=False and exit
        if self.task is not None:
            self.task.cancel()

    def stats(self) -> dict[str, Any]:
        queue = self.queue
        return {"delivered": self.delivered, "dropped": queue.dropped,
                "coalesced": queue.coalesced, "queued": len(queue), "depth": len(queue)}

    def lag(self) -> tuple[int, str]:
        """Events still to deliver, and how a flush timeout names them."""
        return len(self.queue), f"#{self.key}: {len(self.queue)} queued"


class UpcallGroup:
    """Server-side fan-out over many registered upcall procedures."""

    def __init__(
        self, topic: str = "fanout", *, queue_limit: int = 32, slow_policy: str = "drop",
        metrics=None, tracer=None, on_evict: Callable[[int, Exception], Any] | None = None,
        fence=None, store=None, resume_poll: float = 0.25, replay_chunk: int = 64,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if slow_policy not in SLOW_POLICIES:
            raise ValueError(f"slow_policy must be one of {SLOW_POLICIES}, not {slow_policy!r}")
        self.topic = topic
        self.queue_limit = queue_limit
        self.slow_policy = slow_policy
        self._metrics = metrics
        self._tracer = tracer
        self._on_evict = on_evict
        self._fence = fence  # a FenceGuard: stale publishers get FencedWriteError
        self._stages = StageTimer(metrics) if metrics is not None else None
        self._keys = itertools.count(1)
        self._subscribers: dict[int, _Subscriber] = {}
        self._closed = False
        self._event = _Event  # a durable topic stamps its seq on each event
        self._parked: dict = {}  # durable id -> subscription awaiting its subscriber
        #: The durable half; ``store``, a Spool, stays its caller's to close.
        self._durable = None
        if store is not None:
            from repro.cluster.durable import DurableTopic

            self._durable = DurableTopic(self, store, resume_poll, replay_chunk)
            self._event = self._durable.event
        self.posts = self.delivered = self.dropped = self.coalesced = 0
        self.evicted_subscribers = self.evicted_events = self.errors = 0
        self.parks = self.resumes = self.spilled = self.replayed = 0

    def __len__(self) -> int:
        return len(self._subscribers)

    @property
    def subscriber_keys(self) -> list[int]:
        return list(self._subscribers)

    def subscribe(self, proc: Callable[..., Any], *, durable: str | None = None,
                  resume_from: int = 0, signature=None) -> int:
        """Add a procedure (awaited per event if it returns an awaitable);
        returns its key.  ``durable``, ``resume_from`` and ``signature``
        register a durable identity: see :mod:`repro.cluster.durable`."""
        if self._closed:
            raise UpcallError(f"upcall group {self.topic!r} is closed")
        if not callable(proc):
            raise UpcallError(f"subscriber must be callable, got {proc!r}")
        key = next(self._keys)
        if durable is None:
            subscriber = _Subscriber(key, proc, self.queue_limit, self.slow_policy)
        else:
            subscriber = self._plane().subscriber(key, proc, durable, resume_from, signature)
        self._subscribers[key] = subscriber
        subscriber.task = asyncio.get_running_loop().create_task(
            self._pump(subscriber), name=f"fanout-{self.topic}-{key}")
        return key

    def unsubscribe(self, key: int) -> bool:
        """Remove a subscriber; pending events for it are discarded (a durable
        one spills them, but is not parked: unsubscribing is deliberate)."""
        subscriber = self._subscribers.pop(key, None)
        if subscriber is None:
            return False
        subscriber.detach()
        return True

    def post(self, *args: Any) -> int:
        """Enqueue one event to every subscriber; returns how many got it.
        Never blocks and never raises for subscriber trouble."""
        if self._closed:
            raise UpcallError(f"upcall group {self.topic!r} is closed")
        if self._fence is not None:
            self._fence.admit(self.topic)
        self.posts += 1
        enqueued = 0
        t_post = time.perf_counter() if self._stages is not None else 0.0
        event = self._event(args, t_post)
        for subscriber in list(self._subscribers.values()):
            if self._offer(subscriber, event):
                enqueued += 1
        if self._parked:
            enqueued += self._durable.spill_parked(event)
        if self._metrics is not None:
            self._metrics.counter("cluster.fanout.posts").inc()
        if self._stages is not None:
            self._stages.observe(STAGE_ENQUEUE, (time.perf_counter() - t_post) * 1e6)
        return enqueued

    def offer_to(self, key: int, *args: Any) -> bool:
        """Enqueue one event to a single subscriber (the watch protocol's
        replay of missed history; not fenced); True if it queued."""
        if self._closed:
            raise UpcallError(f"upcall group {self.topic!r} is closed")
        subscriber = self._subscribers.get(key)
        if subscriber is None:
            return False
        t_post = time.perf_counter() if self._stages is not None else 0.0
        return self._offer(subscriber, self._event(args, t_post))

    def _offer(self, subscriber: _Subscriber, event: _Event) -> bool:
        """Offer one event to one subscriber, applying the slow policy."""
        if not subscriber.alive:
            return False
        outcome, discarded = subscriber.offer(event)
        if outcome is Outcome.DROPPED:
            self.dropped += discarded
            if self._metrics is not None:
                self._metrics.counter("cluster.fanout.dropped").inc(discarded)
            return False
        if outcome is Outcome.EVICT:
            self._evict(subscriber, SlowSubscriberError(
                f"subscriber {subscriber.key} on topic {self.topic!r} fell "
                f"{len(subscriber.queue)} events behind (queue_limit={self.queue_limit})"))
            return False
        if outcome is Outcome.COALESCED:  # the new event superseded the backlog
            self.coalesced += discarded
            if self._metrics is not None:
                self._metrics.counter("cluster.fanout.coalesced").inc(discarded)
        subscriber.idle.clear()
        if subscriber.asleep:  # an awake pump re-checks its queue by itself
            subscriber.asleep = False
            subscriber.wakeup.set()
        return True

    @property
    def parked_subscribers(self) -> int:
        return len(self._parked)

    @property
    def parked_ids(self) -> list[str]:
        return list(self._parked)

    def ack(self, durable_id: str, seq: int) -> int:
        """Advance a durable subscriber's cursor (max-merge, so the
        ``store_ack`` RPC is retry-safe); returns the cursor."""
        return self._plane().ack(durable_id, seq)

    def forget(self, durable_id: str) -> bool:
        """Drop a durable identity entirely (log, cursor, parked state)."""
        return self._plane().forget(durable_id)

    def _plane(self):
        if self._durable is None:
            raise StoreError(f"topic {self.topic!r} has no store; build the group "
                             f"with store=Spool(...) for durable subscriptions")
        return self._durable

    async def _pump(self, subscriber: _Subscriber) -> None:
        """Drain one subscriber's queue in order, a whole batch per wakeup."""
        set_layer(f"fanout.{self.topic}")  # the per-layer profile's attribution
        try:
            while subscriber.alive:
                events = subscriber.take()
                if not events:
                    subscriber.idle.set()
                    subscriber.wakeup.clear()
                    subscriber.asleep = True
                    await subscriber.wakeup.wait()
                    continue
                if self._stages is not None:
                    now = time.perf_counter()
                    observe = self._stages.instrument(STAGE_QUEUE).observe
                    for event in events:
                        if event.t_post:
                            observe((now - event.t_post) * 1e6)
                if not await self._deliver(subscriber, events):
                    return
        finally:
            subscriber.idle.set()

    async def _deliver(self, subscriber: _Subscriber, events: list) -> bool:
        """Send one batch and settle it; False when the pump must exit."""
        try:
            # Probe first: a session without channels would degrade a void upcall to a no-op.
            if getattr(getattr(subscriber.proc, "sender", None), "can_upcall", True) is False:
                raise UpcallError(f"subscriber {subscriber.key} on topic "
                                  f"{self.topic!r} has no live upcall channel")
            outcomes = await subscriber.send(events)
        except Exception as exc:
            outcomes = exc
        return self._settle(subscriber, events, outcomes)

    def _settle(self, subscriber: _Subscriber, events: list, outcomes) -> bool:
        """The one outcome ledger; False when the subscriber has left.  Each
        event (``outcomes`` may stop at a dead path, or be one exception for
        the whole batch) is delivered, absorbed by the §4.3 error port and so
        delivered, an error (delivery goes on), or a dead path (``fail``)."""
        delivered = errors = 0
        failure = None
        if isinstance(outcomes, DEAD_PATH):
            failure, settled = outcomes, 0
        elif isinstance(outcomes, Exception):
            errors = settled = len(events)
            subscriber.report(outcomes)
        else:
            settled = len(outcomes)
            for index, outcome in enumerate(outcomes):
                if not isinstance(outcome, Exception) or subscriber.absorbs(outcome):
                    delivered += 1
                elif isinstance(outcome, DEAD_PATH):
                    failure, settled = outcome, index
                    break
                else:
                    errors += 1
                    subscriber.report(outcome)
        if delivered:
            subscriber.delivered += delivered
            self.delivered += delivered
            if self._metrics is not None:
                self._metrics.counter("cluster.fanout.delivered").inc(delivered)
        if errors:
            self.errors += errors
            if self._metrics is not None:
                self._metrics.counter("cluster.fanout.errors").inc(errors)
        subscriber.settled(events, settled)
        if failure is None:
            return True
        subscriber.fail(self, failure, events[settled:])
        return False

    def _evict(self, subscriber: _Subscriber, exc: Exception) -> None:
        self._subscribers.pop(subscriber.key, None)
        discarded = subscriber.queue.clear()
        self.evicted_subscribers += 1
        self.evicted_events += discarded
        if self._metrics is not None:
            self._metrics.counter("cluster.fanout.evicted_subscribers").inc()
            if discarded:
                self._metrics.counter("cluster.fanout.evicted_events").inc(discarded)
        self._trace("evict", subscriber, f"{type(exc).__name__}: {exc}")
        subscriber.report(exc)
        if self._on_evict is not None:
            try:
                self._on_evict(subscriber.key, exc)
            except Exception:
                pass
        subscriber.detach()

    def _trace(self, verb: str, subscriber: _Subscriber, detail: str) -> None:
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_FANOUT
            self._tracer.point(KIND_FANOUT, f"{verb} {self.topic}#{subscriber.key}", detail=detail)

    async def flush(self, timeout: float | None = 10.0) -> None:
        """Wait until every live subscriber (and durable log) has drained;
        a timeout's FlushTimeoutError names the laggards and their depths."""
        entries = [s for s in list(self._subscribers.values()) if s.alive]
        if not entries:
            return
        gathered = asyncio.gather(*[s.idle.wait() for s in entries])
        try:
            await asyncio.wait_for(gathered, timeout)
        except asyncio.TimeoutError:
            lags = (s.lag() for s in entries if s.alive and not s.idle.is_set())
            laggards = sorted(lags, key=lambda lag: -lag[0])
            raise FlushTimeoutError(
                f"flush of topic {self.topic!r} timed out after {timeout:g}s "
                f"with {len(laggards)} subscriber(s) still draining: "
                + "; ".join(text for _, text in laggards[:5])
            ) from None
        finally:
            gathered.cancel()

    async def close(self) -> None:
        """Detach every subscriber and stop the pumps; durable subscribers
        spill what they hold first, so a clean shutdown loses nothing."""
        self._closed = True
        if self._durable is not None:
            await self._durable.close()
        subscribers = list(self._subscribers.values())
        self._subscribers.clear()
        for subscriber in subscribers:
            subscriber.detach()
        await asyncio.gather(*[s.task for s in subscribers], return_exceptions=True)

    def stats(self) -> dict[str, Any]:
        """Aggregate and per-subscriber counters; durable registrations add
        their spilled backlog, and parked identities get their own section."""
        return {
            "topic": self.topic, "subscribers": len(self._subscribers),
            **{name: getattr(self, name) for name in _COUNTERS},
            "per_subscriber": {key: s.stats() for key, s in self._subscribers.items()},
            "parked": self._durable.parked_stats() if self._parked else {},
        }

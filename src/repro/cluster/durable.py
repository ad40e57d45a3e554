"""Durable subscriptions: the park/spill/replay half of an UpcallGroup.

A group built with ``store=`` (a :class:`repro.store.Spool`) is a
*durable topic*: every post is stamped with a topic sequence number,
prepended as the first handler argument, so clients can carry an
exactly-once cursor across an outage (:class:`repro.store.ReplayCursor`),
and subscribers may register with ``durable=<stable id>``:

- ``subscribe(proc, durable=id)`` replays the identity's spilled
  backlog (it was parked, or the server restarted with its log on
  disk) in seq order before going live; handlers receive
  ``(seq, *args)``, so declare the leading ``int``;
- ``resume_from`` is the subscriber's own cursor, the highest seq it
  knows it fully processed: everything at or below it is acknowledged
  before replay, closing the in-doubt window of deliveries whose acks
  were lost in a crash;
- ``signature`` bundles spilled events — required for a *local*
  procedure, inferred from a RUC otherwise;
- an id has one live registration: re-subscribing detaches the older
  one (latest wins — the reconnect case).

A durable registration is a :class:`DurableSubscriber`, a subscriber
kind that the group's core delivers through without knowing it is
there (the way PAPERS.md's ODP channel objects splice recovery into a
channel): it overrides the core's subscriber hooks.

- ``fail`` — a dead delivery path *parks* the subscription instead of
  evicting it: the undelivered tail of the batch and the queue spill
  to a crash-safe per-subscriber log, later posts append to it, and
  the identity waits for an explicit re-subscribe under the same id or
  for its session to resume within the linger window;
- ``take`` — a returning subscriber's pump **replays** the log in seq
  order before going live again.  Each chunk of records becomes a
  batch of events whose payload is the stored bytes (never marshalled
  again), so replay goes through the same ``send_upcall_batch`` path
  as live delivery, paced by the subscriber's CREDIT grants — a
  returning slow consumer drains its backlog at its own window;
- ``settled`` advances the acknowledge cursor past replayed records;
- ``offer`` spills instead of queueing while a replay is running, and
  on overflow instead of applying the slow policy, so nothing is
  dropped or reordered;
- ``detach`` (unsubscribe, close) spills whatever was not delivered.

:class:`DurableTopic` holds the rest: seq stamping, the parked
identities and the resume watcher, ``ack`` and ``forget``.  A spill
that fails raises the spool's ``store-spill-failed`` incident; the
publisher never sees it.
"""

from __future__ import annotations

import asyncio
import time

from repro.cluster.group import DEAD_PATH, UpcallGroup, _Event, _Subscriber
from repro.errors import StoreError
from repro.flow import Outcome
from repro.store import DurableSubscription, Spool


class _Record(_Event):
    """A replayed log record, delivered like a live event.

    Its payload is the stored bytes, so it is never marshalled again;
    only a local handler, which needs the arguments, unbundles them.  No frame cache: a record goes to one subscriber only.
    """

    __slots__ = ("seq", "payload", "signature")

    def __init__(self, seq: int, payload: bytes, signature):
        self.seq = seq
        self.payload = payload
        self.signature = signature
        self.t_post = 0.0
        self.frames = None

    def payload_for(self, signature) -> bytes:
        return self.payload

    @property
    def args(self) -> tuple:
        return self.signature.unbundle_args(self.payload)


class DurableSubscriber(_Subscriber):
    """A registration under a durable id: the core's hooks, made durable."""

    __slots__ = ("plane", "subscription", "replaying", "inflight")

    def __init__(self, plane: DurableTopic, key: int, proc, subscription):
        group = plane.group
        super().__init__(key, proc, group.queue_limit, group.slow_policy)
        self.plane = plane
        self.subscription: DurableSubscription = subscription
        #: True while the pump drains the log; posts spill behind it.
        self.replaying = False
        #: The queued batch the pump took and has not settled: a detach
        #: mid-delivery spills it (seq-cursor dedup makes respilling
        #: what already landed harmless).  None for a replayed batch,
        #: whose records are still in the log.
        self.inflight: list | None = None

    def offer(self, event: _Event) -> tuple[Outcome, int]:
        if self.replaying:
            # Mid-replay posts go to the log, behind the backlog being
            # drained — queueing them would reorder.
            self.plane.spill(self.subscription, [event])
        elif len(self.queue) < self.queue.limit:
            return self.queue.offer(event)
        else:
            # Overflow spills instead of dropping: the whole queue
            # drains to the log (queued events first, so seq order is
            # preserved) and the pump switches to replaying.  It stays
            # attached: parking here would strand the batch it holds.
            self.plane.spill(self.subscription, self.queue.pop_all() + [event])
            self.replaying = True
            self.plane.spool.update_gauges()
        return Outcome.ENQUEUED, 0

    def take(self) -> list[_Event]:
        """Queue before log, then one window-shaped chunk of the log.

        The chunk asks the session's upcall gate for headroom
        (:meth:`~repro.flow.CreditGate.headroom`), and the send itself
        blocks on the client's CREDIT grants.  An empty log ends the
        replay synchronously — no await between the check and the flip
        to live, so no post can slip between them.
        """
        events = self.queue.pop_all()
        if events or not self.replaying:
            self.inflight = events
            return events
        self.inflight = None
        chunk = self.plane.replay_chunk
        gate = getattr(getattr(self.proc, "sender", None), "upcall_gate", None)
        subscription = self.subscription
        records = subscription.replay(
            subscription.acked,
            max_events=chunk if gate is None else gate.headroom(default=chunk),
        )
        if not records:
            self.replaying = False
            self.plane.spool.update_gauges()
        signature = subscription.signature
        return [_Record(seq, payload, signature) for seq, payload in records]

    def absorbs(self, exc: Exception) -> bool:
        # A dead path parks before the degradation route may absorb it:
        # absorbed, it would count an event the client never saw.
        return not isinstance(exc, DEAD_PATH) and super().absorbs(exc)

    def settled(self, events: list[_Event], count: int) -> None:
        if self.inflight is None and count:
            self.subscription.ack(events[count - 1].seq)
            group = self.plane.group
            group.replayed += count
            if group._metrics is not None:
                group._metrics.counter("store.replayed_events").inc(count)
                group._metrics.gauge("store.replay_lag_events").set(
                    self.subscription.backlog_events
                )

    def fail(self, group: UpcallGroup, exc: Exception, rest: list[_Event]) -> None:
        """Park: the durable counterpart of eviction.

        Same detach, but ``rest`` (the batch from the failed event on,
        unless it was replayed from the log) and the queue behind it
        land in the spill log, and the identity waits in the group's
        parked set for a re-subscribe or a session resume.
        """
        group._subscribers.pop(self.key, None)
        events = (rest if self.inflight is not None else []) + self.queue.pop_all()
        self.inflight = None
        plane, subscription = self.plane, self.subscription
        spilled = plane.spill(subscription, events)
        subscription.proc = self.proc
        subscription.parked_at = time.time()
        subscription.parks += 1
        group._parked[subscription.durable_id] = subscription
        group.parks += 1
        if group._metrics is not None:
            group._metrics.counter("store.parks").inc()
        group._trace(
            "park",
            self,
            f"{subscription.durable_id}: {type(exc).__name__}: {exc} "
            f"({spilled} events spilled)",
        )
        self.report(exc)
        self.detach()
        if not group._closed and (plane.watcher is None or plane.watcher.done()):
            plane.watcher = asyncio.get_running_loop().create_task(
                plane.resume_parked(), name=f"fanout-{group.topic}-resume"
            )
        plane.spool.update_gauges()

    def detach(self) -> None:
        events = (self.inflight or []) + self.queue.pop_all()
        self.inflight = None
        self.plane.spill(self.subscription, events)
        super().detach()

    def stats(self) -> dict:
        subscription = self.subscription
        return {
            **super().stats(),
            "durable": subscription.durable_id,
            "replaying": self.replaying,
            "backlog_events": subscription.backlog_events,
            "backlog_bytes": subscription.backlog_bytes,
        }

    def lag(self) -> tuple[int, str]:
        queued, text = super().lag()
        subscription = self.subscription
        return queued + subscription.backlog_events, (
            f"{text}, {subscription.backlog_events} spilled "
            f"({subscription.durable_id!r}"
            + (", replaying)" if self.replaying else ")")
        )


class DurableTopic:
    """The durable half of one :class:`~repro.cluster.UpcallGroup`.

    The spool belongs to whoever built the group: closing the group
    stops the resume watcher but leaves the spool and its logs open.
    """

    def __init__(
        self, group: UpcallGroup, spool: Spool, resume_poll: float, replay_chunk: int
    ):
        self.group = group
        self.spool = spool
        self.store = spool.topic(group.topic)
        spool.register_group(group.topic, group)
        self.resume_poll = resume_poll
        self.replay_chunk = max(1, replay_chunk)
        self.watcher: asyncio.Task | None = None

    def event(self, args: tuple, t_post: float) -> _Event:
        """A posted event, its topic seq prepended to the handler arguments:
        for every subscriber, durable or not, so the caches stay shared."""
        return _Event((self.store.assign_seq(),) + args, t_post)

    def subscriber(
        self, key: int, proc, durable_id: str, resume_from: int, signature
    ) -> DurableSubscriber:
        """A registration for ``durable_id``, replaying if it has backlog."""
        signature = signature or getattr(proc, "signature", None)
        if signature is None:
            raise StoreError(
                f"durable subscriber {durable_id!r} needs an upcall "
                f"signature to bundle spilled events; pass signature= "
                f"for local procedures"
            )
        group = self.group
        self._unsubscribe(durable_id)
        subscription = self.store.subscription(durable_id)
        subscription.signature = signature
        subscription.proc = proc
        group._parked.pop(durable_id, None)
        if resume_from:
            subscription.ack(resume_from)
        subscriber = DurableSubscriber(self, key, proc, subscription)
        if subscription.backlog_events:
            subscriber.replaying = True
            subscriber.idle.clear()
            group.resumes += 1
            if group._metrics is not None:
                group._metrics.counter("store.resumes").inc()
        self.spool.update_gauges()
        return subscriber

    def _unsubscribe(self, durable_id: str) -> None:
        """Detach the live registration of ``durable_id``, if any."""
        for key, subscriber in list(self.group._subscribers.items()):
            if (
                isinstance(subscriber, DurableSubscriber)
                and subscriber.subscription.durable_id == durable_id
            ):
                self.group.unsubscribe(key)

    def spill(self, subscription: DurableSubscription, events: list) -> int:
        """Bundle and append events to a subscription's log; returns how many.

        Uses each event's shared payload cache, so spilling to N parked
        subscribers (or spilling what live delivery already bundled)
        marshals each event at most once.  A failing disk must not take
        down the publisher: the spool raises an incident instead, and
        the events are lost for this subscriber only.
        """
        if not events:
            return 0
        group = self.group
        signature = subscription.signature
        try:
            subscription.spill_many(
                [(event.args[0], event.payload_for(signature)) for event in events]
            )
        except Exception as exc:
            self.spool.incident(
                "store-spill-failed",
                f"{group.topic}/{subscription.durable_id}: "
                f"{type(exc).__name__}: {exc}",
            )
            return 0
        group.spilled += len(events)
        if group._metrics is not None:
            group._metrics.counter("store.spilled_events").inc(len(events))
        return len(events)

    def spill_parked(self, event: _Event) -> int:
        spilled = 0
        for subscription in list(self.group._parked.values()):
            spilled += self.spill(subscription, [event])
        self.spool.update_gauges()
        return spilled

    async def resume_parked(self) -> None:
        """Re-attach parked subscriptions whose session came back.

        A client that reconnects within the server's linger window
        resumes its session — same Session object, same RUC bindings,
        fresh channels — so the parked subscription's remembered proc
        becomes deliverable again without the application re-calling
        subscribe.  This poll loop is the durable identity's half of
        that resume handshake.
        """
        group = self.group
        while group._parked and not group._closed:
            await asyncio.sleep(self.resume_poll)
            for durable_id, subscription in list(group._parked.items()):
                proc = subscription.proc
                if getattr(getattr(proc, "sender", None), "can_upcall", False):
                    try:
                        group.subscribe(
                            proc, durable=durable_id, signature=subscription.signature
                        )
                    except Exception:
                        continue

    def ack(self, durable_id: str, seq: int) -> int:
        cursor = self.store.subscription(durable_id).ack(seq)
        self.spool.update_gauges()
        return cursor

    def forget(self, durable_id: str) -> bool:
        self._unsubscribe(durable_id)
        self.group._parked.pop(durable_id, None)
        removed = self.store.forget(durable_id)
        self.spool.update_gauges()
        return removed

    def parked_stats(self) -> dict:
        return {
            durable_id: {
                "backlog_events": subscription.backlog_events,
                "backlog_bytes": subscription.backlog_bytes,
                "parks": subscription.parks,
                "acked": subscription.acked,
            }
            for durable_id, subscription in self.group._parked.items()
        }

    async def close(self) -> None:
        if self.watcher is not None:
            self.watcher.cancel()
            await asyncio.gather(self.watcher, return_exceptions=True)

"""Priority classes and priority-aware queueing.

The stack carries three classes of traffic with naturally different
urgency: distributed upcalls are *interactive* (a server task — and
transitively a user — is blocked waiting, §4.3), synchronous calls
have a caller parked on a future, and batched posts are by
construction deferred work (§3.4).  :class:`PriorityClass` names
those three, lower value = more urgent:

    INTERACTIVE (1)  >  SYNC (2)  >  BATCH (3)

Calls carry their class on the wire (the CALL ``priority`` field); the
senders stamp the natural class automatically, and
:func:`priority_scope` overrides it for a dynamic extent the same way
:func:`repro.rpc.deadline_scope` carries deadlines.

:class:`PriorityMailbox` is the queue discipline: per-class FIFO
queues drained by *weighted* round-robin, so urgent work jumps the
line but a saturated high class can never starve the low ones — with
the default weights, out of every 7 consecutive dequeues under full
backlog, 4 are INTERACTIVE, 2 SYNC, 1 BATCH.  It is API-compatible
with :class:`repro.tasks.Mailbox` (``post``/``take``/``close``), so
the task pool can swap it in (``TaskPool(prioritized=True)``).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import contextvars
import enum
from typing import Any, Deque, Generic, TypeVar

T = TypeVar("T")


class PriorityClass(enum.IntEnum):
    """Scheduling class of one unit of work; lower = more urgent.

    The integer values are the wire encoding; 0 on the
    wire means "unspecified" and is mapped by the receiver to the
    natural class of the call shape.
    """

    INTERACTIVE = 1
    SYNC = 2
    BATCH = 3


#: Weighted round-robin shares under full backlog (per cycle).
DEFAULT_WEIGHTS: dict[PriorityClass, int] = {
    PriorityClass.INTERACTIVE: 4,
    PriorityClass.SYNC: 2,
    PriorityClass.BATCH: 1,
}


_PRIORITY: contextvars.ContextVar[PriorityClass | None] = contextvars.ContextVar(
    "clam_priority", default=None
)


@contextlib.contextmanager
def priority_scope(priority: PriorityClass):
    """Stamp every call sent in this scope with ``priority``.

    Mirrors :func:`repro.rpc.deadline_scope`: ambient, per-task (a
    contextvar), and composable — the innermost scope wins.
    """
    priority = PriorityClass(priority)
    token = _PRIORITY.set(priority)
    try:
        yield
    finally:
        _PRIORITY.reset(token)


def current_priority() -> PriorityClass | None:
    """The ambient priority class, or None outside any scope."""
    return _PRIORITY.get()


def wire_priority(default: PriorityClass) -> int:
    """The wire value a sender should stamp: ambient scope or ``default``."""
    ambient = _PRIORITY.get()
    return int(ambient if ambient is not None else default)


def classify(wire_value: int, default: PriorityClass) -> PriorityClass:
    """Map a wire ``priority`` field to a class (0/garbage → ``default``)."""
    try:
        return PriorityClass(wire_value)
    except ValueError:
        return default


class PriorityMailbox(Generic[T]):
    """Per-class FIFO queues drained by weighted round-robin.

    Drop-in for :class:`repro.tasks.Mailbox` where the posting side
    can name a class: ``post(item, priority=...)``.  ``take()`` serves
    the classes by a weighted cycle — each class gets up to its weight
    of consecutive dequeues while backlogged, then yields the turn —
    which keeps strict FIFO *within* a class (the §3.4 ordering unit)
    and bounded unfairness across classes.
    """

    _CLOSED = object()

    def __init__(self, weights: dict[PriorityClass, int] | None = None) -> None:
        weights = dict(weights or DEFAULT_WEIGHTS)
        for cls in PriorityClass:
            weights.setdefault(cls, 1)
        if any(weight < 1 for weight in weights.values()):
            raise ValueError("priority weights must be >= 1")
        self._weights = weights
        self._queues: dict[PriorityClass, Deque[Any]] = {
            cls: collections.deque() for cls in PriorityClass
        }
        #: Cycle state: class we are serving and dequeues it has left.
        self._turn = list(PriorityClass)
        self._turn_index = 0
        self._turn_left = self._weights[self._turn[0]]
        self._wakeup = asyncio.Event()
        self._closed = False
        self.taken_by_class: dict[PriorityClass, int] = {
            cls: 0 for cls in PriorityClass
        }

    def post(self, item: T, *, priority: PriorityClass = PriorityClass.SYNC) -> None:
        """Enqueue without blocking (queues are unbounded)."""
        if self._closed:
            raise RuntimeError("mailbox is closed")
        self._queues[PriorityClass(priority)].append(item)
        self._wakeup.set()

    def _pick(self) -> PriorityClass | None:
        """The class the weighted cycle serves next, or None when empty.

        Advances the turn past empty classes without consuming their
        budget, so an idle class never blocks the cycle.
        """
        for _ in range(2 * len(self._turn)):
            cls = self._turn[self._turn_index]
            if self._queues[cls] and self._turn_left > 0:
                self._turn_left -= 1
                return cls
            # Class empty or budget spent: pass the turn on.
            self._turn_index = (self._turn_index + 1) % len(self._turn)
            self._turn_left = self._weights[self._turn[self._turn_index]]
        return None

    async def take(self) -> T:
        """Dequeue by priority; raises EOFError once closed and drained."""
        # Imported lazily: repro.tasks imports this module for the
        # prioritized TaskPool, so a module-level import would cycle.
        from repro.tasks.task import current_task

        task = current_task()
        while True:
            cls = self._pick()
            if cls is not None:
                self.taken_by_class[cls] += 1
                return self._queues[cls].popleft()
            if self._closed:
                raise EOFError("mailbox closed")
            self._wakeup.clear()
            if task is not None:
                task._mark_blocked()
            try:
                await self._wakeup.wait()
            finally:
                if task is not None:
                    task._mark_running()

    def close(self) -> None:
        """Wake all takers with EOFError after the backlog drains."""
        self._closed = True
        self._wakeup.set()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def depth(self, priority: PriorityClass) -> int:
        return len(self._queues[PriorityClass(priority)])

"""Client-side resilience policies: deadlines, backoff, retries.

Three small pieces the RPC connection composes:

- :func:`deadline_scope` / :func:`remaining_deadline` — an ambient
  per-call-tree deadline carried in a contextvar.  A caller wraps any
  stretch of work in ``with deadline_scope(0.5):`` and every
  synchronous call made inside it (a) bounds its local wait by the
  remaining budget and (b) propagates the remainder on the wire
  (``deadline_ms``) so the server can abort work nobody
  will wait for.  Relative budgets, never absolute timestamps — no
  clock synchronization between peers is assumed.

- :class:`RetryPolicy` — exponential backoff with deterministic,
  seedable jitter.  Used both for per-call retries of idempotent
  methods and for reconnect supervision.

Retry safety is a *pair* of mechanisms: the stub layer only retries
methods declared ``@idempotent`` (the author's contract claim), and
the server deduplicates by call serial regardless (see
:class:`~repro.rpc.dispatcher.Dispatcher`), so even a retry that
crosses its original in flight executes at most once.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
from dataclasses import dataclass
from typing import Iterator


_DEADLINE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "clam_deadline", default=None
)


@contextlib.contextmanager
def deadline_scope(seconds: float):
    """Bound every synchronous call in this scope by one shared budget.

    Nested scopes only ever *shrink* the budget — an inner scope
    cannot outlive its enclosing deadline.
    """
    import asyncio

    if seconds <= 0:
        raise ValueError("deadline must be positive")
    loop = asyncio.get_running_loop()
    expires = loop.time() + seconds
    current = _DEADLINE.get()
    if current is not None:
        expires = min(expires, current)
    token = _DEADLINE.set(expires)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def remaining_deadline() -> float | None:
    """Seconds left in the ambient deadline scope; None outside one.

    Returns 0.0 when the budget is already spent — callers treat that
    as "expired", not "no deadline".
    """
    import asyncio

    expires = _DEADLINE.get()
    if expires is None:
        return None
    return max(0.0, expires - asyncio.get_running_loop().time())


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, deterministic under a seed.

    ``attempts`` counts total tries (1 = no retry).  Delay before
    retry *n* (n >= 1) is ``base_delay * multiplier**(n-1)`` capped at
    ``max_delay``, plus up to ``jitter`` of itself drawn from
    ``random.Random(seed)`` — seeded so chaos runs replay exactly.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delays(self) -> Iterator[float]:
        """The backoff sequence: one delay per retry (attempts - 1 of them)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            jittered = delay
            if self.jitter:
                jittered += delay * self.jitter * rng.random()
            yield jittered
            delay = min(delay * self.multiplier, self.max_delay)


#: Remote exception type names the client folds into StaleHandleError:
#: both mean "the capability no longer matches a live object".
STALE_REMOTE_TYPES = frozenset({"StaleHandleError", "ForgedHandleError"})

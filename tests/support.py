"""Shared helpers for the test suite.

pytest-asyncio is not available in this environment, so async tests are
plain functions decorated with :func:`async_test`, which runs the
coroutine on a fresh event loop per test.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Awaitable, Callable, Coroutine


def async_test(fn: Callable[..., Coroutine[Any, Any, Any]]):
    """Run an ``async def`` test on a fresh event loop."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return asyncio.run(asyncio.wait_for(fn(*args, **kwargs), timeout=60))

    return wrapper


async def eventually(
    predicate: Callable[[], bool],
    *,
    timeout: float = 5.0,
    interval: float = 0.001,
) -> None:
    """Await until ``predicate()`` is true, or fail after ``timeout``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(interval)


async def gather_with_timeout(*aws: Awaitable[Any], timeout: float = 30.0):
    """``asyncio.gather`` wrapped in a timeout so hung tests fail fast."""
    return await asyncio.wait_for(asyncio.gather(*aws), timeout=timeout)


class ScriptedSender:
    """A stand-in for a server session's batched upcall surface.

    Wrap it in a :class:`repro.core.RemoteUpcall` and subscribe that to
    an :class:`~repro.cluster.UpcallGroup`: the group then delivers
    through :meth:`send_upcall_batch`, exactly as it does to a client.
    Each batch is unbundled and recorded in ``batches``; ``outcomes``
    maps an event's last argument to the exception that event answers
    with (everything else succeeds).  A dead-path outcome
    (``UpcallError``/``TransportError``) also marks the sender as unable
    to upcall, as a session whose channel died would be.  ``hold``, when
    set, makes every batch wait for that event before answering.
    ``report_upcall_failure`` records each offered failure and absorbs
    it when ``absorb`` is true (the server's ``degrade_upcalls``).
    """

    def __init__(self, signature, outcomes=None, *, absorb: bool = False):
        self.signature = signature
        self.outcomes: dict = dict(outcomes or {})
        self.absorb = absorb
        self.can_upcall = True
        self.hold: asyncio.Event | None = None
        self.batches: list[list[tuple]] = []
        self.reports: list[Exception] = []

    @property
    def delivered(self) -> list[tuple]:
        return [args for batch in self.batches for args in batch]

    async def send_upcall(self, callback_id: int, payload: bytes) -> bytes:
        raise AssertionError("a batch-capable sender gets batches only")

    async def send_upcall_batch(self, callback_id: int, items) -> list:
        from repro.errors import TransportError, UpcallError

        batch = [self.signature.unbundle_args(payload) for payload, _ in items]
        self.batches.append(batch)
        if self.hold is not None:
            await self.hold.wait()
        results: list = []
        for args in batch:
            outcome = self.outcomes.get(args[-1])
            if isinstance(outcome, (UpcallError, TransportError)):
                self.can_upcall = False
            results.append(b"" if outcome is None else outcome)
        return results

    def report_upcall_failure(self, callback_id: int, exc: Exception) -> bool:
        self.reports.append(exc)
        return self.absorb

"""Fencing tokens: monotonic write guards for replicated resources.

SNIPPETS.md snippet 1 names the problem: a lease holder that pauses
(GC, partition, suspended VM) and resumes after its lease lapsed must
not be able to clobber its successor's writes.  The fix is a token
totally ordered across every grant the directory ever makes — here
``(epoch, counter)`` where *epoch* is the election term of the leader
that granted the lease and *counter* is the replicated-log index of
the grant.  Both come from one replicated log, so tokens are globally
monotonic even across leader failover: a new leader's first grant
carries a higher epoch than anything the old leader handed out.

Three pieces live here (in ``repro.rpc`` rather than ``repro.cluster``
because the RPC layer stamps tokens onto the wire and the server layer
checks them — both below the cluster package in the import order):

- :class:`FencingToken` — the ordered value itself.
- :func:`fence_scope` / :func:`current_fence` — contextvar plumbing,
  mirroring ``deadline_scope``/``priority_scope``: a client enters
  ``fence_scope(token)`` and every call made inside is stamped with
  the token; the dispatcher re-enters the scope around
  handler execution so guarded resources read the *caller's* token
  via :func:`current_fence` without any signature changes.
- :class:`FenceGuard` — per-key high-water-mark admission: a write
  bearing a token older than the newest one already admitted for that
  key raises :class:`~repro.errors.FencedWriteError`.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import FencedWriteError

__all__ = [
    "FencingToken",
    "FenceGuard",
    "fence_scope",
    "current_fence",
    "pack_leader_hint",
    "parse_leader_hint",
]


@dataclass(frozen=True, order=True)
class FencingToken:
    """A totally ordered ``(epoch, counter)`` write credential.

    ``epoch`` is the election term of the granting leader and
    ``counter`` the log index of the grant, so comparison is
    lexicographic: any grant by a newer leader outranks every grant by
    an older one, and within one term later grants outrank earlier
    ones.  The zero token is falsy and means "unfenced".
    """

    epoch: int = 0
    counter: int = 0

    def __bool__(self) -> bool:
        return self.epoch != 0 or self.counter != 0

    def __str__(self) -> str:
        return f"{self.epoch}.{self.counter}"


#: Ambient token for calls issued (client side) or being served
#: (server side) in the current task.  ``None`` means unfenced.
_FENCE: ContextVar[Optional[FencingToken]] = ContextVar("clam_fence", default=None)


@contextlib.contextmanager
def fence_scope(token: Optional[FencingToken]) -> Iterator[None]:
    """Stamp ``token`` on every call made inside the ``with`` block.

    The RPC connection reads the ambient token when building each
    CALL message; the dispatcher restores it around
    handler execution on the far side.  Nests: the innermost scope
    wins, and ``fence_scope(None)`` explicitly un-fences a region.
    """
    handle = _FENCE.set(token)
    try:
        yield
    finally:
        _FENCE.reset(handle)


def current_fence() -> Optional[FencingToken]:
    """The ambient fencing token, or ``None`` when unfenced.

    Server-side this is the token the *remote caller* presented on the
    call currently executing — guarded resources (the builtin
    ``publish`` path, :meth:`repro.cluster.UpcallGroup.post`) check it
    against a :class:`FenceGuard` without threading a parameter
    through every signature.
    """
    return _FENCE.get()


class FenceGuard:
    """Per-key high-water-mark admission for fenced writes.

    :meth:`admit` implements the one rule that makes fencing work
    (snippet 1's storage-side check): remember the newest token ever
    admitted for each key and refuse anything older.  Equal tokens are
    admitted — a retry of the holder's own write is not a conflict.
    Unfenced writes (no ambient token) pass untouched so single-node
    deployments keep working; fencing is opt-in per caller.
    """

    def __init__(self, metrics=None):
        self._marks: dict[str, FencingToken] = {}
        self._metrics = metrics

    def admit(self, key: str, token: Optional[FencingToken] = None) -> None:
        """Raise :class:`FencedWriteError` if ``token`` is stale for ``key``.

        With ``token`` omitted the ambient :func:`current_fence` is
        used.  Admitted tokens ratchet the high-water mark forward.
        """
        if token is None:
            token = current_fence()
        if token is None or not token:
            return
        mark = self._marks.get(key)
        if mark is not None and token < mark:
            if self._metrics is not None:
                self._metrics.counter("cluster.directory.fenced_writes").inc()
            raise FencedWriteError(
                f"write to {key!r} fenced: token {token} < admitted {mark}"
            )
        self._marks[key] = token

    def mark(self, key: str) -> Optional[FencingToken]:
        """The newest token admitted for ``key`` (``None`` if never fenced)."""
        return self._marks.get(key)

    def clear(self, key: str) -> None:
        """Forget the mark for ``key`` (the resource was torn down)."""
        self._marks.pop(key, None)


# ---------------------------------------------------------------------------
# Leader hints in exception text — the ServerOverloadedError idiom.


_HINT_PREFIX = " [leader="


def pack_leader_hint(message: str, leader_url: str) -> str:
    """Append a ``[leader=url]`` hint to an error message.

    Carried in the message text (like ``retry_after_ms``) because the
    EXCEPTION frame has no field for it; the client recovers the hint
    with :func:`parse_leader_hint`.
    """
    if not leader_url:
        return message
    return f"{message}{_HINT_PREFIX}{leader_url}]"


def parse_leader_hint(message: str) -> str:
    """Extract the ``[leader=url]`` hint, or ``""`` when absent."""
    start = message.rfind(_HINT_PREFIX)
    if start < 0:
        return ""
    start += len(_HINT_PREFIX)
    end = message.find("]", start)
    if end < 0:
        return ""
    return message[start:end]

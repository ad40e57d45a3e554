"""Exception hierarchy for the CLAM reproduction.

Every error raised by this library derives from :class:`ClamError`, so
applications can catch one base class at the client/server boundary.
The sub-hierarchies mirror the paper's subsystems: XDR bundling (§3.3),
transports and channels (§4.4), RPC (§3.4), object handles (§3.5.1),
distributed upcalls (§4), dynamic loading and fault isolation (§2,
§4.3), and tasks (§4.3).
"""

from __future__ import annotations

import asyncio


class ClamError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# XDR / bundling (paper §3.3)


class XdrError(ClamError):
    """Malformed XDR data or a value outside its XDR type's range."""


class BundleError(ClamError):
    """A parameter could not be bundled or unbundled.

    Raised when automatic bundler derivation fails for a type (the
    paper's motivation for user-specified bundlers, §3.1) or when a
    user bundler violates the bundler rules of §3.3.
    """


# ---------------------------------------------------------------------------
# Transports and channels (paper §4.4)


class TransportError(ClamError):
    """Failure in the reliable, in-order IPC substrate."""


class ConnectionClosedError(TransportError):
    """The peer closed the connection (cleanly or not)."""


class FramingError(TransportError):
    """A message frame was malformed (bad length prefix or truncation)."""


# ---------------------------------------------------------------------------
# RPC runtime (paper §3.4)


class RpcError(ClamError):
    """Base class for remote-procedure-call failures."""


class ProtocolError(RpcError):
    """The peer sent a message that violates the RPC protocol."""


class BadCallError(RpcError):
    """The call named an unknown class, method, or object."""


class CallTimeoutError(RpcError):
    """A synchronous call's reply did not arrive within the deadline.

    The call may still execute on the server; timeouts bound the
    caller's wait, not the remote effect.
    """


class DeadlineExpiredError(RpcError):
    """The call's propagated deadline expired before (or during) execution.

    Raised server-side when a call arrives with its wire deadline
    (``deadline_ms``) already spent, or when execution
    overruns the remaining budget; the client sees it as the remote
    type of the resulting :class:`RemoteError`.
    """


class ServerOverloadedError(RpcError):
    """The server's admission control shed the call before executing it.

    Always safe to retry — shedding happens *before* dispatch, so the
    call had no remote effect.  ``retry_after_ms`` is the server's
    hint for how long to back off; :class:`~repro.rpc.RetryPolicy`
    honors it (waiting at least that long) even for methods not
    declared idempotent, precisely because nothing executed.

    The hint is carried inside the exception message on the wire
    (``... [retry_after_ms=N]``) because the EXCEPTION frame has no
    field for it; the client recovers the structured field — see
    :func:`repro.flow.pack_retry_after` / ``parse_retry_after``.
    """

    def __init__(self, message: str, retry_after_ms: int = 0):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class CreditExhaustedError(RpcError):
    """A ``post(nowait=True)`` found the credit window empty.

    The peer has not granted room for another asynchronous call; the
    caller chose failing fast over blocking until the window reopens
    (see :class:`repro.flow.CreditGate`)."""


class RemoteError(RpcError):
    """An exception escaped the remote procedure.

    The remote traceback is carried as text; the original exception
    type name is in :attr:`remote_type`.
    """

    def __init__(self, remote_type: str, message: str, remote_traceback: str = ""):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message
        self.remote_traceback = remote_traceback


# ---------------------------------------------------------------------------
# Object handles (paper §3.5.1, Figure 3.3)


class HandleError(ClamError):
    """Base class for object-handle validation failures."""


class ForgedHandleError(HandleError):
    """The tag in the handle did not match the tag in the descriptor."""


class StaleHandleError(HandleError):
    """The handle refers to an object that no longer exists."""


class UnknownClassError(HandleError):
    """The handle's class identifier names a class not loaded in the server."""


class RemoteStaleError(RemoteError, StaleHandleError):
    """A remote handle fault, surfaced locally as a stale handle.

    Raised client-side when the server reports ``StaleHandleError`` or
    ``ForgedHandleError`` for a handle this client holds — whether on a
    synchronous call, on a batched post (reported out-of-band), or when a lookup replayed across a reconnect finds the name
    rebound to a different tag.  It inherits from *both*
    :class:`RemoteError` (it describes a server-side rejection) and
    :class:`StaleHandleError` (the handle is dead; drop it and look the
    object up again), so callers may catch either.
    """


# ---------------------------------------------------------------------------
# Distributed upcalls (paper §4)


class UpcallError(ClamError):
    """A distributed or local upcall could not be delivered."""


class RegistrationError(UpcallError):
    """An upcall registration was rejected (bad procedure type, dead port)."""


#: ``asyncio.TimeoutError`` is the builtin from Python 3.11 on, its own
#: class before that; a timeout error here must be both.
_TIMEOUT_BASES = tuple(dict.fromkeys((asyncio.TimeoutError, TimeoutError)))


class FlushTimeoutError(UpcallError, *_TIMEOUT_BASES):
    """A fan-out flush timed out; the message names the laggards.

    Subclasses :class:`TimeoutError` and ``asyncio.TimeoutError`` so
    existing handlers for either keep working — callers just get told
    *which* subscriber is behind and by how much instead of a bare
    timeout.
    """


# ---------------------------------------------------------------------------
# Dynamic loading (paper §2, §4.3)


class LoaderError(ClamError):
    """A module could not be dynamically loaded into the server."""


class ModuleVersionError(LoaderError):
    """Version-control conflict between loaded module versions."""


class FaultyClassError(LoaderError):
    """The class was marked faulty after an error signal was caught.

    Mirrors §4.3: once the server catches an error in a dynamically
    loaded class it may refuse further calls into that class.
    """


# ---------------------------------------------------------------------------
# Tasks (paper §4.3)


class TaskError(ClamError):
    """Misuse of the cooperative task system."""


# ---------------------------------------------------------------------------
# Durable store (repro.store: spill logs, replay, retention)


class StoreError(ClamError):
    """Base class for failures in the durable store-and-forward plane.

    Raised for misuse (appending to a closed log, a non-monotonic
    seq, acking an unknown topic) — never for subscriber trouble,
    which the fan-out layer absorbs the way it always has.  On-disk
    damage is *not* an exception at all: recovery truncates to the
    last intact record, counts ``store.truncations``, and raises a
    flight-recorder incident instead of refusing to open.
    """


# ---------------------------------------------------------------------------
# Cluster layer (repro.cluster: directory, replica pools, fan-out groups)


class ClusterError(ClamError):
    """Base class for failures in the cluster layer."""


class NoReplicasError(ClusterError):
    """A service name resolved to no live replica.

    Raised by a :class:`~repro.cluster.ReplicaPool` when every known
    endpoint is down (or the directory has no entry) even after a
    forced re-resolution.  Transient by nature: a replica heartbeating
    back into the directory makes the next call succeed.
    """


class NotLeaderError(ClusterError):
    """A directory write landed on a follower replica.

    Always safe to retry against the leader — followers refuse writes
    *before* touching any state.  ``leader_url`` is the follower's
    best guess at the current leader ("" when an election is in
    progress); :class:`~repro.cluster.LeaderClient` follows the hint.

    Like :class:`ServerOverloadedError`'s ``retry_after_ms``, the hint
    rides inside the exception message on the wire
    (``... [leader=url]``) because the EXCEPTION frame has no field for
    it; the client recovers the structured field — see
    :func:`repro.rpc.pack_leader_hint` / ``parse_leader_hint``.
    """

    def __init__(self, message: str, leader_url: str = ""):
        super().__init__(message)
        self.leader_url = leader_url


class FencedWriteError(ClusterError):
    """A write carried a fencing token older than one already admitted.

    The canonical split-brain guard (SNIPPETS.md snippet 1): a
    paused-and-resumed lease holder presents its stale ``(epoch,
    counter)`` token and the guarded resource refuses the write instead
    of letting it clobber the successor's.  Never retryable with the
    same token — the holder must re-acquire its lease (and thereby a
    fresher token) first.
    """


class SlowSubscriberError(ClusterError):
    """A fan-out subscriber fell too far behind and was evicted.

    Never raised into the publisher — :meth:`~repro.cluster.UpcallGroup.post`
    does not block on slow subscribers.  It is the exception *reported*
    for the evicted subscriber (through the §4.3 error-port degradation
    path when the server enables ``degrade_upcalls``)."""

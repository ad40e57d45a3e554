"""Server-side admission control: shed before you execute.

Credits (:mod:`repro.flow.credits`) bound how much *one* producer can
have in flight; admission control bounds what the server as a whole
accepts.  A call that will not be served usefully — over the rate the
operator budgeted, beyond the concurrency the latency target allows,
or too late for its own deadline — is rejected *before* dispatch with
:class:`~repro.errors.ServerOverloadedError` carrying a
``retry_after_ms`` hint.  Because shedding precedes execution, the
rejection is retryable even for non-idempotent methods; the client's
retry loop honours the hint (waits at least that long) regardless of
idempotency declarations.

Policies are pluggable and composable:

- :class:`TokenBucket` — a rate limit with burst capacity; the
  classic operator knob ("this service takes 500 calls/s").
- :class:`ConcurrencyLimit` — AIMD-adapted in-flight cap: sustained
  queue-wait above ``target_wait`` multiplicatively shrinks the
  limit, every on-target completion additively regrows it, so the
  limit converges near the knee of the latency curve without tuning.
- :class:`DeadlineAware` — sheds calls whose wire deadline
  (``deadline_ms``) cannot be met given the current backlog and the
  observed service time; running them would waste capacity on answers
  nobody will wait for.
- :class:`AdmissionChain` — all of the above in sequence; first shed
  verdict wins.

Every policy takes a ``floor`` — the least-urgent
:class:`~repro.flow.PriorityClass` it still *exempts*.  The default
(``None``) applies the policy to all traffic; ``floor=INTERACTIVE``
lets interactive work bypass a bucket meant to throttle batch floods,
which is how the e2e overload scenario keeps interactive latency flat
while batch posts shed.

The ``retry_after_ms`` hint travels inside the exception message text
(``... [retry_after_ms=N]``) because the EXCEPTION frame has no field
for it; the client recovers it with :func:`parse_retry_after`.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

from repro.errors import ServerOverloadedError
from repro.flow.priority import PriorityClass

_RETRY_AFTER = re.compile(r"\[retry_after_ms=(\d+)\]")


def pack_retry_after(message: str, retry_after_ms: int) -> str:
    """Embed the hint in an exception message for the wire."""
    return f"{message} [retry_after_ms={int(retry_after_ms)}]"


def parse_retry_after(message: str) -> int:
    """Recover the hint from a remote error message; 0 when absent."""
    match = _RETRY_AFTER.search(message)
    return int(match.group(1)) if match else 0


@dataclass(frozen=True)
class AdmissionRequest:
    """What a policy may look at when judging one call."""

    method: str
    priority: PriorityClass
    deadline_ms: int = 0        # 0 = no deadline
    queue_depth: int = 0        # admitted-but-unfinished calls server-wide
    cost_bytes: int = 0


class AdmissionPolicy:
    """One admission verdict; subclasses override :meth:`judge`.

    ``judge`` returns ``None`` to admit or a non-negative
    ``retry_after`` in *seconds* to shed.  ``note_start`` /
    ``note_finish`` bracket every admitted call so adaptive policies
    can learn from what they let through.
    """

    #: Least-urgent class exempt from this policy (None = judge all).
    floor: PriorityClass | None = None

    def applies_to(self, request: AdmissionRequest) -> bool:
        return self.floor is None or request.priority > self.floor

    def judge(self, request: AdmissionRequest) -> float | None:
        raise NotImplementedError

    def note_start(self, request: AdmissionRequest) -> None:
        pass

    def note_finish(
        self, request: AdmissionRequest, queue_wait: float, service_time: float
    ) -> None:
        pass


class TokenBucket(AdmissionPolicy):
    """Admit up to ``rate`` calls/s with bursts of ``burst``.

    The shed hint is the exact time until the next token matures, so
    an honouring client retries right when it can succeed.
    """

    def __init__(
        self,
        rate: float,
        burst: int | None = None,
        *,
        floor: PriorityClass | None = None,
        clock=time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.burst = float(burst if burst is not None else max(1, int(rate)))
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        self.floor = floor
        self._clock = clock
        self._tokens = self.burst
        self._refilled = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._refilled) * self.rate)
        self._refilled = now

    def judge(self, request: AdmissionRequest) -> float | None:
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        return (1.0 - self._tokens) / self.rate


class ConcurrencyLimit(AdmissionPolicy):
    """An in-flight cap that AIMD-adapts to observed queue wait.

    Classic congestion-control shape: a completion whose queue wait
    stayed under ``target_wait`` grows the limit additively
    (``+1/limit`` — one unit per full window of good completions); a
    completion over target shrinks it multiplicatively (``×beta``), at
    most once per ``cooldown`` so one burst cannot collapse the limit
    to the floor.  The cap therefore hovers where queueing starts to
    hurt, without the operator guessing a number.
    """

    def __init__(
        self,
        initial: int = 32,
        *,
        min_limit: int = 1,
        max_limit: int = 1024,
        target_wait: float = 0.05,
        beta: float = 0.7,
        cooldown: float = 0.1,
        floor: PriorityClass | None = None,
        clock=time.monotonic,
    ):
        if not 1 <= min_limit <= initial <= max_limit:
            raise ValueError("need 1 <= min_limit <= initial <= max_limit")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        self.limit = float(initial)
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.target_wait = target_wait
        self.beta = beta
        self.cooldown = cooldown
        self.floor = floor
        self._clock = clock
        self._last_shrink = -1e9
        self.active = 0
        self.shrinks = 0

    def judge(self, request: AdmissionRequest) -> float | None:
        if self.active < int(self.limit):
            return None
        # The backlog ahead needs roughly one target_wait to clear.
        return self.target_wait

    def note_start(self, request: AdmissionRequest) -> None:
        self.active += 1

    def note_finish(
        self, request: AdmissionRequest, queue_wait: float, service_time: float
    ) -> None:
        self.active = max(0, self.active - 1)
        if queue_wait > self.target_wait:
            now = self._clock()
            if now - self._last_shrink >= self.cooldown:
                self._last_shrink = now
                self.limit = max(float(self.min_limit), self.limit * self.beta)
                self.shrinks += 1
        else:
            self.limit = min(float(self.max_limit), self.limit + 1.0 / self.limit)


class DeadlineAware(AdmissionPolicy):
    """Shed calls that cannot finish inside their own deadline.

    Estimated sojourn = (queue ahead + 1) × EWMA service time.  A call
    whose ``deadline_ms`` is smaller than that would expire in the
    queue; executing it spends capacity on an answer the client has
    already abandoned.  Calls without a deadline are never judged.
    The hint is the estimated time for the backlog to drain.
    """

    def __init__(
        self,
        *,
        initial_service_time: float = 0.001,
        alpha: float = 0.2,
        floor: PriorityClass | None = None,
    ):
        self.service_ewma = initial_service_time
        self.alpha = alpha
        self.floor = floor

    def judge(self, request: AdmissionRequest) -> float | None:
        if not request.deadline_ms:
            return None
        sojourn = (request.queue_depth + 1) * self.service_ewma
        if sojourn <= request.deadline_ms / 1000.0:
            return None
        return request.queue_depth * self.service_ewma

    def note_finish(
        self, request: AdmissionRequest, queue_wait: float, service_time: float
    ) -> None:
        self.service_ewma += self.alpha * (service_time - self.service_ewma)


class AdmissionChain(AdmissionPolicy):
    """Compose policies; the first shed verdict wins.

    ``note_start``/``note_finish`` fan out to every member, so each
    adaptive policy keeps learning even when another one sheds.
    """

    def __init__(self, *policies: AdmissionPolicy):
        self.policies = tuple(policies)

    def applies_to(self, request: AdmissionRequest) -> bool:
        return any(policy.applies_to(request) for policy in self.policies)

    def judge(self, request: AdmissionRequest) -> float | None:
        for policy in self.policies:
            if not policy.applies_to(request):
                continue
            verdict = policy.judge(request)
            if verdict is not None:
                return verdict
        return None

    def note_start(self, request: AdmissionRequest) -> None:
        for policy in self.policies:
            policy.note_start(request)

    def note_finish(
        self, request: AdmissionRequest, queue_wait: float, service_time: float
    ) -> None:
        for policy in self.policies:
            policy.note_finish(request, queue_wait, service_time)


def overloaded(method: str, retry_after: float) -> ServerOverloadedError:
    """Build the shed error with the hint packed for the wire."""
    retry_after_ms = max(1, int(retry_after * 1000)) if retry_after > 0 else 0
    return ServerOverloadedError(
        pack_retry_after(
            f"server shed {method!r} before execution", retry_after_ms
        ),
        retry_after_ms=retry_after_ms,
    )

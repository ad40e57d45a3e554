"""Credit-based flow control: the producer's window (CREDIT frames).

One :class:`CreditGate` sits on the producing side of a stream — the
client's batched-call path, the server's upcall path — and admits a
send only while the consumer's cumulative grant covers it.  The
consumer (the server's dispatcher draining batched calls, the
client's upcall service finishing handlers) re-grants as it drains,
so a slow consumer stalls the producer instead of letting memory
balloon anywhere in between.

Semantics chosen for fault tolerance, not elegance-on-paper:

- **Grants are cumulative absolutes** ("you may have sent N total"),
  and :meth:`update` max-merges them.  Duplicated or reordered CREDIT
  frames are then harmless: an old grant can never shrink the window.
- **Dropped grants cannot deadlock.**  A producer stalled longer than
  ``probe_interval`` sends a CREDIT probe; the consumer answers with
  its current grant (idempotent, see above).  The probe loop runs for
  as long as the stall does.
- **Usage never exceeds the grant** — :meth:`acquire` blocks (or, with
  ``nowait=True``, raises :class:`~repro.errors.CreditExhaustedError`)
  while the window is short.  That is the invariant the chaos suite
  pins: no fault schedule can make a producer over-admit.

Byte accounting must agree on both ends without inspecting payloads
deeply: a message costs ``len(args) + MESSAGE_OVERHEAD``
(:func:`message_cost`), computed identically from the producer's
outgoing and the consumer's incoming ``CallMessage``/``UpcallMessage``.

A gate built *unlimited* — for a stream whose consumer never grants,
such as a bare :class:`~repro.rpc.RpcConnection` or single-stream
upcalls — admits every acquire immediately and tracks nothing.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable

from repro.errors import CreditExhaustedError

#: Fixed per-message cost added to the payload length, so zero-byte
#: posts still consume window and the header is roughly accounted.
MESSAGE_OVERHEAD = 64

#: Default windows granted by a consumer that was not configured
#: otherwise.  Sized to keep fast local traffic unthrottled while
#: still bounding a runaway producer.
DEFAULT_WINDOW_MSGS = 256
DEFAULT_WINDOW_BYTES = 4 << 20

#: How long a producer stays stalled before probing for a lost grant.
DEFAULT_PROBE_INTERVAL = 0.25


def message_cost(args: bytes) -> int:
    """The window cost of one message with payload ``args``."""
    return len(args) + MESSAGE_OVERHEAD


class CreditGate:
    """Producer-side window: blocks sends the peer has not granted.

    ``send_probe`` is an async callable invoked (with this gate's
    cumulative usage) when a stall outlives ``probe_interval``; wire
    it to send ``CreditMessage(used_msgs, used_bytes, probe=True)``.
    """

    def __init__(
        self,
        *,
        unlimited: bool = False,
        send_probe: Callable[[int, int], Awaitable[Any]] | None = None,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        metrics=None,
        tracer=None,
        name: str = "flow.credit",
        channel: str = "",
    ):
        self._unlimited = unlimited
        self._send_probe = send_probe
        self._probe_interval = probe_interval
        self._metrics = metrics
        self._tracer = tracer
        # ``channel`` labels the metric series (flow.credit.stalls
        # {channel=rpc} vs {channel=upcall}) while keeping one metric
        # name per quantity; the display name used in errors and trace
        # details still reads "flow.credit.rpc".  Instruments are
        # resolved once here so the hot path never formats or probes.
        self._name = f"{name}.{channel}" if channel else name
        labels = {"channel": channel} if channel else {}
        if metrics is not None:
            self._stall_counter = metrics.counter(f"{name}.stalls", **labels)
            self._stall_hist = metrics.histogram(f"{name}.stall_us", **labels)
            self._probe_counter = metrics.counter(f"{name}.probes", **labels)
            # Window occupancy, for live consoles: how many message
            # slots of the peer's grant remain unspent right now.
            self._window_gauge = metrics.gauge(
                f"{name}.available_msgs", **labels
            )
        else:
            self._stall_counter = None
            self._stall_hist = None
            self._probe_counter = None
            self._window_gauge = None
        self._granted_msgs = 0
        self._granted_bytes = 0
        self._used_msgs = 0
        self._used_bytes = 0
        self._window = asyncio.Event()  # set while credit may be available
        self._failure: Exception | None = None
        self.stalls = 0
        self.probes = 0
        self.grants_seen = 0

    # -- state -------------------------------------------------------------------

    @property
    def unlimited(self) -> bool:
        return self._unlimited

    @property
    def used_msgs(self) -> int:
        return self._used_msgs

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def granted_msgs(self) -> int:
        return self._granted_msgs

    @property
    def granted_bytes(self) -> int:
        return self._granted_bytes

    @property
    def available_msgs(self) -> int:
        return self._granted_msgs - self._used_msgs

    @property
    def available_bytes(self) -> int:
        return self._granted_bytes - self._used_bytes

    def _covers(self, nbytes: int) -> bool:
        return self.available_msgs >= 1 and self.available_bytes >= nbytes

    def headroom(self, *, default: int) -> int:
        """Suggested batch size for a producer planning a drain.

        How many messages the current grant could admit right now,
        clamped to ``[1, default]`` — an unlimited gate just
        returns ``default``.  Purely advisory: the drain still goes
        through :meth:`acquire_batch`, which enforces the window; this
        lets a producer with a large backlog (the store's replay pump)
        take window-shaped bites instead of staging one giant batch
        that mostly waits inside the gate.
        """
        if self._unlimited:
            return default
        return max(1, min(default, self.available_msgs))

    # -- consumer input ------------------------------------------------------------

    def update(self, msg_credit: int, byte_credit: int) -> None:
        """Merge one CREDIT announcement; stale/duplicate grants are no-ops."""
        self.grants_seen += 1
        widened = False
        if msg_credit > self._granted_msgs:
            self._granted_msgs = msg_credit
            widened = True
        if byte_credit > self._granted_bytes:
            self._granted_bytes = byte_credit
            widened = True
        if widened:
            self._window.set()
        if self._window_gauge is not None:
            self._window_gauge.set(self.available_msgs)

    def reset(self, *, unlimited: bool) -> None:
        """Start over for a fresh channel (reconnect).

        The peer's consumer state restarted with the channel, so both
        the grant and our usage go back to zero; blocked acquirers wake
        and re-evaluate against the new window.
        """
        self._unlimited = unlimited
        self._granted_msgs = 0
        self._granted_bytes = 0
        self._used_msgs = 0
        self._used_bytes = 0
        self._failure = None
        self._window.set()

    def fail(self, exc: Exception) -> None:
        """Poison the gate (connection died): wake and raise on waiters."""
        self._failure = exc
        self._window.set()

    # -- producer side -------------------------------------------------------------

    def try_acquire(self, nbytes: int) -> bool:
        """Take the window for one message if it is open right now."""
        if self._unlimited:
            return True
        if self._failure is not None:
            raise self._failure
        if not self._covers(nbytes):
            return False
        self._used_msgs += 1
        self._used_bytes += nbytes
        if self._window_gauge is not None:
            self._window_gauge.set(self._granted_msgs - self._used_msgs)
        return True

    async def acquire(self, nbytes: int, *, nowait: bool = False) -> None:
        """Consume window for one ``nbytes``-payload message.

        Blocks until the consumer grants room; with ``nowait=True``
        raises :class:`CreditExhaustedError` instead of blocking.
        While blocked past ``probe_interval``, sends CREDIT probes so a
        dropped grant is recovered rather than deadlocking.
        """
        if self.try_acquire(nbytes):
            return
        if nowait:
            raise CreditExhaustedError(
                f"{self._name}: window exhausted "
                f"({self.available_msgs} msgs / {self.available_bytes} bytes "
                f"available, need 1 msg / {nbytes} bytes)"
            )
        self.stalls += 1
        if self._stall_counter is not None:
            self._stall_counter.inc()
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_FLOW

            self._tracer.point(
                KIND_FLOW, f"stall {self._name}", detail=f"need {nbytes}B"
            )
        stalled_at = time.perf_counter()
        while True:
            self._window.clear()
            if self.try_acquire(nbytes):  # re-check under the cleared flag
                break
            try:
                await asyncio.wait_for(self._window.wait(), self._probe_interval)
            except asyncio.TimeoutError:
                await self._probe()
        if self._stall_hist is not None:
            self._stall_hist.observe((time.perf_counter() - stalled_at) * 1e6)

    async def acquire_batch(self, costs, *, nowait: bool = False) -> int:
        """Admit a prefix of a coalesced batch in one window pass.

        ``costs`` is the per-message byte cost of each message in the
        batch, in send order.  Blocks (with the same probe loop as
        :meth:`acquire`) until at least the *first* message is covered,
        then greedily admits as many of the rest as the current window
        holds — no further blocking, no per-message gate round trips.
        Returns how many messages were admitted (>= 1); the caller
        sends exactly that many and comes back for the remainder, so a
        batch wider than the peer's whole window degrades to several
        window-sized flushes instead of deadlocking.
        """
        if not costs:
            return 0
        if self._unlimited:
            return len(costs)
        await self.acquire(costs[0], nowait=nowait)
        taken = 1
        for cost in costs[1:]:
            if not self.try_acquire(cost):
                break
            taken += 1
        return taken

    async def _probe(self) -> None:
        if self._send_probe is None:
            return
        self.probes += 1
        if self._probe_counter is not None:
            self._probe_counter.inc()
        try:
            await self._send_probe(self._used_msgs, self._used_bytes)
        except Exception:
            # The channel may be mid-teardown; fail()/reset() decides
            # our fate, not a probe that could not be written.
            pass


class CreditLedger:
    """Consumer-side accounting: drained work becomes fresh grants.

    The consumer counts what it has *finished* absorbing and
    re-announces ``drained + window`` whenever half the window has
    gone by since the last announcement — frequent enough that a
    producer rarely stalls on a healthy stream, cheap enough to be
    noise.  ``announce`` (also the probe answer) is idempotent by the
    max-merge rule on the receiving gate.
    """

    def __init__(
        self,
        send: Callable[[int, int], Awaitable[Any]],
        *,
        window_msgs: int = DEFAULT_WINDOW_MSGS,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        metrics=None,
        tracer=None,
        name: str = "flow.credit",
        channel: str = "",
    ):
        if window_msgs < 1 or window_bytes < 1:
            raise ValueError("credit windows must be >= 1")
        self._send = send
        self.window_msgs = window_msgs
        self.window_bytes = window_bytes
        self._tracer = tracer
        self._name = f"{name}.{channel}" if channel else name
        labels = {"channel": channel} if channel else {}
        if metrics is not None:
            self._grant_counter = metrics.counter(f"{name}.grants", **labels)
            self._lost_counter = metrics.counter(f"{name}.lost", **labels)
        else:
            self._grant_counter = None
            self._lost_counter = None
        self.drained_msgs = 0
        self.drained_bytes = 0
        self._announced_msgs = 0
        self.grants_sent = 0

    async def announce(self) -> None:
        """Send the current cumulative grant (initial grant, probe answer)."""
        self._announced_msgs = self.drained_msgs
        self.grants_sent += 1
        if self._grant_counter is not None:
            self._grant_counter.inc()
        if self._tracer is not None and self._tracer.active:
            from repro.trace import KIND_FLOW

            self._tracer.point(
                KIND_FLOW,
                f"grant {self._name}",
                detail=f"{self.drained_msgs + self.window_msgs} msgs",
            )
        await self._send(
            self.drained_msgs + self.window_msgs,
            self.drained_bytes + self.window_bytes,
        )

    async def drained(self, nbytes: int) -> None:
        """Record one absorbed message; re-grant at the half-window mark."""
        self.drained_msgs += 1
        self.drained_bytes += nbytes
        if self.drained_msgs - self._announced_msgs >= max(1, self.window_msgs // 2):
            await self.announce()

    def reconcile(
        self,
        used_msgs: int,
        used_bytes: int,
        *,
        held_msgs: int = 0,
        held_bytes: int = 0,
    ) -> None:
        """Write off frames the producer sent that never arrived.

        A probe carries the producer's cumulative usage.  Whatever it
        sent that we neither drained nor currently hold (``held_*``)
        was lost in transit — without this, every lost frame shrinks
        the effective window forever, and enough loss closes it (the
        grant ``drained + window`` converges onto the producer's
        ``used``).  Counting the lost frames as drained repairs the
        window; a frame merely *delayed* past the probe is written off
        too and briefly widens the consumer's in-flight bound when it
        finally lands — bounded by the frames in flight at probe time.
        """
        lost_msgs = used_msgs - held_msgs - self.drained_msgs
        lost_bytes = used_bytes - held_bytes - self.drained_bytes
        if lost_msgs <= 0 and lost_bytes <= 0:
            return
        if lost_msgs > 0:
            self.drained_msgs += lost_msgs
            if self._lost_counter is not None:
                self._lost_counter.inc(lost_msgs)
        if lost_bytes > 0:
            self.drained_bytes += lost_bytes

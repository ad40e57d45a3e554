"""How fast the host is at this moment, relative to the rest of the run.

The sandbox's two CPUs share a core, and whatever runs on the sibling
slows this one by up to a third for stretches of milliseconds to
minutes.  The stretches that are short beside a block land in the
block's tail: ten runs of ``fig51_roundtrip`` spread (first to third
quartile over median) by 0.17-0.21 on the p95s as the clock read them,
which no bound the contract allows clears with room to spare.

So a fixed routine — a stretch of interpreter work that allocates, and a
few ``send``/``recv`` pairs over a socket pair, the two kinds of work an
RPC is made of — is timed every few operations, between operations and
never inside one.  A latency sample is scaled by *the run's typical
tick / the tick taken next to it*: samples from a moment when the host
ran as it did for most of the run stay as the clock read them, samples
from a slow moment are scaled back.  The scale is the run's own median,
so values stay microseconds on this host as it was during the run; there
is no constant to tune, and a change of state that lasts the whole run
is not hidden.  Rates, set-up time and memory are not scaled at all.
The routine calls nothing of the repo's, so a change to the repo moves
the samples and not the yardstick.
"""

from __future__ import annotations

import socket
import time

_USER_ITERATIONS = 400
_SYS_ROUNDTRIPS = 3
_PAYLOAD = b"x" * 64
_now = time.perf_counter


class Reference:
    """Owns the socket pair; :meth:`tick` times the routine."""

    def __init__(self):
        self._left, self._right = socket.socketpair()
        #: Every tick of the process, in us.
        self.ticks: list[float] = []
        #: Seconds spent ticking, for loops that time themselves around ticks.
        self.spent = 0.0

    def tick(self) -> float:
        """Time the routine three times (~60 us in all); returns the middle one.

        One run in three may be caught by an interrupt; the median is not.
        """
        send, recv = self._left.send, self._right.recv
        took = []
        begin = start = _now()
        for _ in range(3):
            # A fresh integer object every iteration on purpose: a busy
            # sibling weighs on code that allocates and misses caches —
            # which is what an RPC path is — more than on a loop that
            # lives in registers.
            acc = 0
            for i in range(_USER_ITERATIONS):
                acc += i * i
            for _ in range(_SYS_ROUNDTRIPS):
                send(_PAYLOAD)
                recv(64)
            end = _now()
            took.append(end - start)
            start = end
        self.spent += start - begin
        middle = sorted(took)[1] * 1e6
        self.ticks.append(middle)
        return middle

    def close(self) -> None:
        self._left.close()
        self._right.close()

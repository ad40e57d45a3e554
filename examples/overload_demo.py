"""Overload shedding and flow control (`repro.flow`).

An open-loop producer hammers a deliberately slow server twice:

1. **without admission control** — every call is accepted, the queue
   grows, and *everyone's* latency climbs with it;
2. **with admission control** — a token bucket sheds the excess
   before execution with a ``retry_after_ms`` hint, so the accepted
   calls stay fast, the shed calls fail fast, and an
   interactive-floored call jumps past the whole storm.

Along the way the batched-post flood shows the credit window
bounding the server's queued-call memory.

Run with::

    python examples/overload_demo.py
"""

import asyncio
import time

from repro import ClamClient, ClamServer, RemoteInterface
from repro.errors import ServerOverloadedError
from repro.flow import PriorityClass, TokenBucket, priority_scope

SOURCE = '''
import asyncio

from repro.stubs import RemoteInterface


class Grinder(RemoteInterface):
    """Each call costs ~2ms of simulated work."""

    def __init__(self):
        self.ground = 0

    async def grind(self, value: int) -> int:
        await asyncio.sleep(0.002)
        self.ground += 1
        return self.ground

    async def grind_note(self, value: int) -> None:
        await asyncio.sleep(0.002)
        self.ground += 1
'''


class Grinder(RemoteInterface):
    def grind(self, value: int) -> int: ...
    def grind_note(self, value: int) -> None: ...


async def storm(work, n: int) -> tuple[int, int, list[float]]:
    """Fire n open-loop sync calls; return (served, shed, latencies)."""
    served = shed = 0
    latencies: list[float] = []

    async def one(i: int) -> None:
        nonlocal served, shed
        started = time.perf_counter()
        try:
            await work.grind(i)
        except ServerOverloadedError:
            shed += 1
            return
        served += 1
        latencies.append(time.perf_counter() - started)

    await asyncio.gather(*(one(i) for i in range(n)))
    return served, shed, latencies


def p95(samples: list[float]) -> float:
    return sorted(samples)[int(len(samples) * 0.95)] if samples else 0.0


async def run(slug: str, label: str, n: int, **server_kwargs) -> None:
    server = ClamServer(**server_kwargs)
    address = await server.start(f"memory://overload-{slug}")
    # Setup runs interactive-scoped so a floored bucket never sheds it.
    with priority_scope(PriorityClass.INTERACTIVE):
        client = await ClamClient.connect(address)
        await client.load_module("grinder", SOURCE)
        work = await client.create(Grinder)

    started = time.perf_counter()
    served, shed, latencies = await storm(work, n)
    elapsed = time.perf_counter() - started
    print(f"{label}:")
    print(f"  served {served}/{n}, shed {shed} "
          f"({shed / n:.0%}), wall {elapsed * 1000:.0f}ms")
    print(f"  goodput {served / elapsed:.0f} calls/s, "
          f"p95 latency of served calls {p95(latencies) * 1000:.1f}ms")

    if shed:
        # A shed is retryable (nothing executed) and carries a hint.
        with priority_scope(PriorityClass.INTERACTIVE):
            jumped = await work.grind(-1)
        print(f"  interactive-floored call served immediately (#{jumped})")

    # The credit window bounds queued-post memory too.
    for i in range(200):
        try:
            await work.grind_note(i)
        except ServerOverloadedError:
            pass
    await client.flush()
    # A sync call is the §3.4 ordering fence: the server has executed
    # every batched post before it answers this.
    with priority_scope(PriorityClass.INTERACTIVE):
        await work.grind(-2)
    session = next(iter(server.sessions.values()))
    flow = session.dispatcher.flow
    print(f"  batched flood: peak in-flight {flow.max_inflight} "
          f"(credit window {server.flow.window_msgs})")

    await client.close()
    await server.shutdown()


async def main() -> None:
    n = 300
    await run("open", "no admission control", n)
    await run(
        "shed",
        "token bucket (150/s, burst 40, interactive floor)",
        n,
        admission=TokenBucket(150.0, burst=40, floor=PriorityClass.INTERACTIVE),
        credit_window=32,
    )


if __name__ == "__main__":
    asyncio.run(main())

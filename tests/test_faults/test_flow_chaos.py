"""Seeded chaos against the credit window.

CREDIT frames ride the same streams as everything else, so a faulty
link drops, duplicates, and reorders them like any other frame.  The
design claims two invariants survive *any* schedule:

- **no deadlock** — a producer stalled on a lost grant probes its way
  out (``CreditGate`` probe loop), so the flood below always drains;
- **no over-admission** — grants max-merge, so duplicated or reordered
  CREDIT frames can never widen the window beyond what the consumer
  actually granted: ``used <= granted`` holds at every step, and the
  server's per-channel in-flight peak stays within the window.

One run per seed (``CHAOS_SEED`` env var, else 1-5), same convention
as ``test_chaos.py`` — a failing seed replays exactly in CI and at a
desk.
"""

import itertools
import os

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.faults import FaultInjector, FaultRates, SeededSchedule
from repro.obs.metrics import MetricsRegistry
from repro.rpc import RetryPolicy
from repro.stubs import idempotent
from tests.support import async_test, eventually

_ids = itertools.count(1)

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEED", "").split(",") if s] or [
    1,
    2,
    3,
    4,
    5,
]

N_POSTS = 120
WINDOW = 8

FLOOD_SOURCE = '''
import asyncio

from repro.stubs import RemoteInterface


class Flood(RemoteInterface):
    def __init__(self):
        self.absorbed = 0

    async def soak(self, value: int) -> None:
        self.absorbed += 1
        await asyncio.sleep(0.001)

    def absorbed_count(self) -> int:
        return self.absorbed
'''


class Flood(RemoteInterface):
    def soak(self, value: int) -> None: ...
    @idempotent
    def absorbed_count(self) -> int: ...


def credit_chaos_rates() -> FaultRates:
    """Loss, duplication, and reordering — the CREDIT-hostile mix.

    No closes: reconnects reset both ends' credit arithmetic, which is
    covered elsewhere; this schedule keeps one channel alive and lets
    the frame-level faults land on CREDIT grants and probes.
    """
    return FaultRates(
        drop=0.03,
        delay=0.05,
        duplicate=0.03,
        reorder=0.03,
        corrupt=0.0,
        close=0.0,
        slow=0.02,
        max_delay=0.003,
    )


@pytest.mark.parametrize("seed", SEEDS)
@async_test
async def test_credit_window_survives_chaos(seed):
    fault_metrics = MetricsRegistry()
    schedule = SeededSchedule(
        seed, rates=credit_chaos_rates(), warmup=10, max_faults=150
    )
    injector = FaultInjector(schedule, metrics=fault_metrics)

    server = ClamServer(credit_window=WINDOW, credit_bytes=1 << 20)
    address = await server.start(f"memory://flow-chaos-{seed}-{next(_ids)}")
    chaos_url = injector.wrap_url(address)
    try:
        client = await ClamClient.connect(
            chaos_url,
            call_timeout=1.0,
            retry=RetryPolicy(attempts=8, base_delay=0.01, max_delay=0.1, seed=seed),
        )
        await client.load_module("flood", FLOOD_SOURCE)
        target = await client.create(Flood)

        # -- the flood: open-loop posts against a deliberately small
        #    window; progress is the no-deadlock proof (async_test caps
        #    the whole run, so a wedged gate fails loudly) -------------------
        for i in range(N_POSTS):
            await target.soak(i)
        await client.flush()

        gate = client.rpc.credit_gate
        session = next(iter(server.sessions.values()))
        flow = session.dispatcher.flow

        # -- no over-admission, producer side: usage within the grant ------
        assert not gate.unlimited
        assert gate.used_msgs <= gate.granted_msgs, (
            f"seed {seed}: over-admitted {gate.used_msgs} msgs "
            f"against a grant of {gate.granted_msgs}"
        )
        assert gate.used_bytes <= gate.granted_bytes

        # -- no over-admission, consumer side: queued-call memory stayed
        #    inside the window the server granted.  A duplicated frame
        #    is briefly in server memory before the dedup drains it, so
        #    the bound widens by the duplicates the schedule injected. --
        dups = injector.counts().get("duplicate", 0)
        assert flow.max_inflight <= WINDOW + dups, (
            f"seed {seed}: {flow.max_inflight} calls in flight "
            f"for a window of {WINDOW} (+{dups} duplicated frames)"
        )

        # -- the flood really did drain (dropped post frames are lost
        #    messages, not lost liveness: the server absorbed the rest) ----
        await eventually(lambda: flow.inflight == 0, timeout=10.0)
        absorbed = await target.absorbed_count()
        assert absorbed <= N_POSTS  # duplicates were deduplicated
        assert absorbed >= 1

        # -- audit: the schedule actually hurt this run --------------------
        assert injector.injected > 0, f"seed {seed}: no faults injected"

        await client.close()
    finally:
        await server.shutdown()
        injector.release_url()

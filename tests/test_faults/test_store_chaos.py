"""Seeded chaos against the durable store-and-forward path.

Two claims from the durability design, each replayed per seed
(``CHAOS_SEED`` env var, else 1-5, same convention as
``test_chaos.py``):

- **kill-mid-stream exactly-once** — a durable subscriber rides a
  faulty wire (drops, duplicates, delays) and is then killed abruptly;
  a successor under the same durable id resumes from the victim's
  cursor.  Whatever the schedule did to the live phase, the union of
  the two cursors' admissions must be every event exactly once, in
  order: unconfirmed deliveries respill, duplicates fall to the
  cursor, and the replay fills every hole.  Reorder stays at zero —
  ordered delivery is a transport guarantee the store builds on, not
  one it re-creates.
- **power-cut prefix recovery** — an ``fsync="always"`` log cut at a
  seeded random byte offset must recover exactly the records whose
  bytes fully reached the disk before the cut, flag the damage as a
  torn tail (a normal crash signature, not corruption), and keep
  appending where the prefix left off.
"""

import itertools
import os
import random
from typing import Callable

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.cluster import UpcallGroup
from repro.faults import FaultInjector, FaultRates, SeededSchedule
from repro.obs.metrics import MetricsRegistry
from repro.rpc import RetryPolicy
from repro.store import ReplayCursor, Spool, SubscriberLog
from tests.support import async_test, eventually

_ids = itertools.count(1)

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEED", "").split(",") if s] or [
    1,
    2,
    3,
    4,
    5,
]

N_EVENTS = 120


class Hub(RemoteInterface):
    def __init__(self, spool: Spool):
        self.group = UpcallGroup(
            "events", store=spool, queue_limit=32, resume_poll=0.05
        )

    def join(
        self, proc: Callable[[int, int], None], durable: str, resume_from: int
    ) -> int:
        return self.group.subscribe(proc, durable=durable, resume_from=resume_from)


def store_chaos_rates() -> FaultRates:
    """Loss, latency, and duplication — but never reordering or
    injector-driven closes: the kill in the workload is the close, and
    in-order frames are the transport contract the cursor relies on."""
    return FaultRates(
        drop=0.02,
        delay=0.05,
        duplicate=0.03,
        reorder=0.0,
        corrupt=0.0,
        close=0.0,
        slow=0.02,
        max_delay=0.003,
    )


@pytest.mark.parametrize("seed", SEEDS)
@async_test
async def test_kill_mid_stream_is_exactly_once(seed, tmp_path):
    fault_metrics = MetricsRegistry()
    schedule = SeededSchedule(
        seed, rates=store_chaos_rates(), warmup=10, max_faults=100
    )
    injector = FaultInjector(schedule, metrics=fault_metrics)

    spool = Spool(str(tmp_path / "spool"), fsync="never")
    server = ClamServer(
        session_linger=30.0, degrade_upcalls=True, upcall_timeout=0.3
    )
    hub = Hub(spool)
    server.attach_store(spool)
    server.publish("hub", hub)
    address = await server.start(f"memory://store-chaos-{seed}-{next(_ids)}")
    chaos_url = injector.wrap_url(address)
    try:
        # -- the victim: a durable subscriber on the faulty wire -----------
        client_a = await ClamClient.connect(
            chaos_url,
            call_timeout=1.0,
            retry=RetryPolicy(
                attempts=8, base_delay=0.01, max_delay=0.1, seed=seed
            ),
        )
        cursor_a = ReplayCursor()
        got_a: list[tuple[int, int]] = []

        def on_event_a(seq: int, value: int) -> None:
            if cursor_a.admit(seq):
                got_a.append((seq, value))

        proxy_a = await client_a.lookup(Hub, "hub")
        await proxy_a.join(on_event_a, "sub", 0)

        # Phase 1: half the stream fights the schedule.  A dropped
        # upcall parks the subscription mid-phase — that is fine, the
        # kill below just lands on a subscriber that is already down.
        for value in range(N_EVENTS // 2):
            hub.group.post(value)
        await eventually(
            lambda: len(got_a) >= 10 or hub.group.parked_subscribers == 1,
            timeout=30.0,
        )
        # The kill stops the whole victim, not only its streams: neither
        # frames it had already read into its upcall backlog nor a
        # reconnect by its supervisor may reach ``on_event_a`` after the
        # successor takes its cursor.
        await client_a.close()

        # Phase 2: the publisher never pauses; everything spills.
        for value in range(N_EVENTS // 2, N_EVENTS):
            hub.group.post(value)
        await eventually(lambda: hub.group.parked_subscribers == 1)

        # -- the successor: same id, clean wire, resumes from the
        #    victim's cursor.  The replay must close every hole the
        #    chaos opened. ------------------------------------------------
        client_b = await ClamClient.connect(address)
        cursor_b = ReplayCursor(cursor_a.last)
        got_b: list[tuple[int, int]] = []

        def on_event_b(seq: int, value: int) -> None:
            if cursor_b.admit(seq):
                got_b.append((seq, value))

        proxy_b = await client_b.lookup(Hub, "hub")
        await proxy_b.join(on_event_b, "sub", cursor_a.last)
        await eventually(
            lambda: len(got_a) + len(got_b) == N_EVENTS, timeout=30.0
        )
        await hub.group.flush(timeout=30.0)

        combined = [value for _, value in got_a] + [value for _, value in got_b]
        assert combined == list(range(N_EVENTS)), (
            f"seed {seed}: exactly-once broken — "
            f"{len(combined)} admitted, victim saw {len(got_a)}"
        )
        seqs = [seq for seq, _ in got_a] + [seq for seq, _ in got_b]
        assert seqs == sorted(seqs)
        assert injector.injected > 0, f"seed {seed}: no faults injected"

        await client_b.close()
    finally:
        await hub.group.close()
        spool.close()
        await server.shutdown()
        injector.release_url()


@pytest.mark.parametrize("seed", SEEDS)
def test_power_cut_recovers_the_durable_prefix(seed, tmp_path):
    rng = random.Random(seed)
    path = str(tmp_path / "sub.log")
    log = SubscriberLog(path, fsync="always").open()
    records = []
    ends = []
    for i in range(40):
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 64)))
        log.append(i + 1, payload)
        records.append((i + 1, payload))
        ends.append(log.size_bytes)
    log.close()

    # The power cut: the file ends at an arbitrary byte.
    cut = rng.randint(0, ends[-1])
    os.truncate(path, cut)

    incidents = []
    again = SubscriberLog(
        path, on_incident=lambda r, d: incidents.append(r)
    ).open()
    keep = [rec for rec, end in zip(records, ends) if end <= cut]
    assert again.replay(0) == keep, f"seed {seed}: cut at {cut}"
    # A clean cut at a record boundary is not damage; anything else is
    # a torn tail — never a corruption incident.
    if cut in (0, *ends):
        assert again.truncations == 0
    else:
        assert again.truncations == 1
        assert "torn-tail" in again.recovered_detail
    assert incidents == []

    # The log keeps appending where the surviving prefix left off.
    next_seq = keep[-1][0] + 1 if keep else 1
    again.append(next_seq, b"after the outage")
    assert [s for s, _ in again.replay(0)] == [
        *[s for s, _ in keep],
        next_seq,
    ]
    again.close()

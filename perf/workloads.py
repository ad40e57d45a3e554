"""The four workloads: seeded inputs, the runs themselves, reference checks.

Every workload is one ``ClamServer`` and its ``ClamClient``s inside one
process on one asyncio loop, talking over loopback ``unix://`` — the
paper's same-machine rows; no real link is crossed.  The program under
test sees only inputs generated here from ``--seed``.

Each workload has two *legs*, ``a`` and ``b`` — the two operations it
alternates between — and reports for each a latency (``*_p50_us``,
``*_p95_us``) and a rate (``*_per_s``).  What the legs are is in
``perf/manifest.py`` (``LEGS``), and by name in ``perf/README.md``.

The timed phase is cut into *blocks* of :data:`BLOCK_S` (or one cycle);
a metric is made of per-block values (``perf/run.py`` takes their better
quartile).  Every few operations, between operations, a reference
routine is timed, and a latency sample is scaled by how the host ran
next to it relative to the rest of the run (see ``perf/calibrate.py``
for why); rates, set-up time and memory are as the clock read them.

An operation that raises, times out, is refused, arrives twice, out of
order or with the wrong value is *failed*: it is counted and gets no
latency sample.

Methods named ``op_*`` perform one operation and ``on_*`` handle one
upcall; the traced run (``perf/trace.py``) wraps exactly these, so the
timed run carries no probe of its own.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import random
import shutil
import statistics
import time
import zlib
from typing import Callable

from repro.client import ClamClient
from repro.cluster import UpcallGroup
from repro.server import ClamServer
from repro.store import ReplayCursor, Spool
from repro.stubs import RemoteInterface

from perf.calibrate import Reference
from perf.stats import block_quantiles, block_rates, quantile

#: Un-timed operations of the workload's own kind before the clock starts.
WARMUP_OPS = 2000
#: Length of one block of the timed phase.
BLOCK_S = 1.0

_MASK = (1 << 61) - 1
_now = time.perf_counter


@dataclasses.dataclass
class Block:
    """One block of one leg."""

    #: Latencies of the verified operations, in us.
    samples: list[float] = dataclasses.field(default_factory=list)
    #: Operations verified, and the seconds they took: the block's rate.
    done: int = 0
    seconds: float = 0.0
    #: (samples so far, reference tick in us): the tick taken after them.
    marks: list[tuple[int, float]] = dataclasses.field(default_factory=list)


class Workload:
    """Common bookkeeping: blocks by leg, failures, the report."""

    name = ""
    #: Legs whose blocks make up the run's operations and operation time
    #: (batch_marshal's leg b times part of what leg a already counts).
    op_legs: tuple[str, ...] = ("a", "b")

    def __init__(self, seed: int, out_dir: str, traced: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out_dir = out_dir
        self.ref = Reference()
        #: True in the traced run, where an open loop's idle time cannot
        #: be told from the loop's own; see Fanout8.measure.
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.blocks: dict[str, list[Block]] = {"a": [], "b": []}
        self.diagnostics: dict[str, float] = {}
        #: Reasons the measurement itself cannot be trusted (not failures
        #: of the system): a run with any reports no number.
        self.invalid: list[str] = []
        #: Latency limits missed: printed with the run, and no part of
        #: ``correct``, which is about the outputs.
        self.limits_missed: list[str] = []

    async def setup(self) -> None:
        """Build the server and its clients, then warm up."""
        raise NotImplementedError

    async def measure(self, seconds: float) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    def audit(self) -> list[str]:
        """End-of-run reference checks; returns what went wrong."""
        return []

    def start_clock(self) -> None:
        """Warm-up is over: it must have gone well, and none of it is reported."""
        if self.failed:
            raise RuntimeError(f"{self.name}: {self.failed} warm-up operations failed")
        self.attempted = 0
        self.blocks = {"a": [], "b": []}

    def begin_block(self, leg: str) -> Block:
        block = Block()
        self.blocks[leg].append(block)
        return block

    def mark(self, *blocks: Block) -> None:
        """Time the reference routine: it speaks for the samples since the last mark."""
        tick = self.ref.tick()
        for block in blocks:
            block.marks.append((len(block.samples), tick))

    def scaled(self, block: Block) -> list[float]:
        """The block's samples, each scaled by the run's typical tick over its own."""
        typical = statistics.median(self.ref.ticks)
        out: list[float] = []
        start = 0
        for end, tick in block.marks:
            factor = typical / tick
            out.extend(x * factor for x in block.samples[start:end])
            start = end
        out.extend(block.samples[start:])  # after the last mark: as the clock read them
        return out

    def op_seconds(self) -> float:
        """Seconds of the timed phase spent inside operations."""
        return sum(block.seconds for leg in self.op_legs for block in self.blocks[leg])

    def ops_done(self) -> int:
        """Operations the per-operation trace metrics are divided by."""
        return sum(block.done for leg in self.op_legs for block in self.blocks[leg])

    def report(self) -> dict:
        """Per-block values of every metric.

        ``perf/run.py`` makes the metric of the blocks of all the
        interpreters it ran the workload in.
        """
        problems = self.audit()
        metrics = {}
        for leg in ("a", "b"):
            blocks = [block for block in self.blocks[leg] if block.done]
            samples = [self.scaled(block) for block in blocks]
            for label, q in (("p50", 0.5), ("p95", 0.95)):
                metrics[f"{leg}_{label}_us"] = {
                    "blocks": block_quantiles(samples, q),
                    "samples": sum(map(len, samples)),
                }
            metrics[f"{leg}_per_s"] = {
                "blocks": block_rates([(block.done, block.seconds) for block in blocks]),
                "samples": sum(block.done for block in blocks),
            }
            pooled = sorted(x for block in samples for x in block)
            self.diagnostics[f"{leg}_p99_us"] = quantile(pooled, 0.99)
        self.diagnostics["ref_tick_us"] = statistics.median(self.ref.ticks)
        return {
            "workload": self.name,
            "correct": not problems and self.failed == 0,
            "problems": problems,
            "invalid": self.invalid,
            "limits_missed": self.limits_missed,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "diagnostics": self.diagnostics,
            "op_seconds": self.op_seconds(),
            "ops": self.ops_done(),
        }


# ---------------------------------------------------------------------------
# fig51_roundtrip

#: Calls (or upcalls) between two reference ticks: ~3 ms of work per ~60 us tick.
GROUP_OPS = 25


class RoundtripLayer(RemoteInterface):
    """Host-embedded server layer: answers ``total()``, upcalls ``proc(i)``.

    The upcall leg is stamped here, on the server side of the wire, by
    the layer that holds the procedure pointer — where the paper's
    Figure 5.1 measures a remote upcall.
    """

    __clam_local__ = ("op_upcall",)

    def __init__(self, key: int, owner: "Fig51Roundtrip"):
        self.value = 0
        self.key = key
        self.owner = owner
        self.proc = None
        self.next_i = 0
        self.samples: list[float] = []

    def total(self) -> int:
        return self.value

    def register(self, proc: Callable[[int], int]) -> bool:
        self.proc = proc
        return True

    async def upcalls(self, millis: int) -> int:
        """Make upcalls back to back for ``millis``: one block of leg b."""
        owner = self.owner
        block = owner.begin_block("b")
        self.samples = block.samples
        spent = owner.ref.spent
        start = _now()
        deadline = start + millis / 1000.0
        while _now() < deadline:
            for _ in range(GROUP_OPS):
                await self.op_upcall()
            owner.mark(block)
        block.seconds = _now() - start - (owner.ref.spent - spent)
        block.done = len(block.samples)
        return block.done

    async def warm(self, count: int) -> int:
        for _ in range(count):
            await self.op_upcall()
        return count

    async def op_upcall(self) -> None:
        i = self.next_i
        self.next_i = i + 1
        self.owner.attempted += 1
        start = _now()
        try:
            result = await self.proc(i)
        except Exception:
            self.owner.failed += 1
            return
        elapsed = _now() - start
        if result == i ^ self.key:
            self.samples.append(elapsed * 1e6)
        else:
            self.owner.failed += 1


class Fig51Roundtrip(Workload):
    """Closed loop, one client: blocks of sync calls, blocks of upcalls."""

    name = "fig51_roundtrip"

    async def setup(self) -> None:
        self.key = self.rng.getrandbits(31)
        self.layer = RoundtripLayer(self.key, self)
        self.server = ClamServer()
        self.server.publish("perf.roundtrip", self.layer)
        address = await self.server.start(f"unix://{self.out_dir}/fig51.sock")
        self.client = await ClamClient.connect(address)
        self.proxy = await self.client.lookup(RoundtripLayer, "perf.roundtrip")
        await self.proxy.register(self.on_upcall)
        self.samples: list[float] = []
        self.layer.value = self.rng.getrandbits(31)
        for _ in range(WARMUP_OPS // 2):
            await self.op_call()
        await self.proxy.warm(WARMUP_OPS // 2)

    def on_upcall(self, i: int) -> int:
        return i ^ self.key

    async def op_call(self) -> None:
        self.attempted += 1
        start = _now()
        try:
            value = await self.proxy.total()
        except Exception:
            self.failed += 1
            return
        elapsed = _now() - start
        if value == self.layer.value:
            self.samples.append(elapsed * 1e6)
        else:
            self.failed += 1

    async def measure(self, seconds: float) -> None:
        end = _now() + seconds
        while _now() < end:
            # Leg a: one block of sequential sync calls.
            self.layer.value = self.rng.getrandbits(31)
            block = self.begin_block("a")
            self.samples = block.samples
            spent = self.ref.spent
            start = _now()
            deadline = start + BLOCK_S
            while _now() < deadline:
                for _ in range(GROUP_OPS):
                    await self.op_call()
                self.mark(block)
            block.seconds = _now() - start - (self.ref.spent - spent)
            block.done = len(block.samples)
            # Leg b: one block of upcalls, issued and stamped by the layer.
            await self.proxy.upcalls(int(BLOCK_S * 1000))

    async def teardown(self) -> None:
        await self.client.close()
        await self.server.shutdown()


# ---------------------------------------------------------------------------
# batch_marshal


@dataclasses.dataclass
class Reading:
    """One eight-field record of the ingest stream."""

    station: int
    channel: int
    seq: int
    at: float
    value: float
    error: float
    valid: bool
    unit: str


POSTS_PER_BURST = 64
READINGS_PER_POST = 16
BLOB_BYTES = 16 << 10
_UNITS = ("degC", "hPa", "m/s", "%", "mm", "W/m2")


def fold_readings(acc: int, readings: list[Reading]) -> int:
    """Order-sensitive checksum step shared by the server layer and the reference."""
    for r in readings:
        acc = (acc * 1000003 + r.station * 31 + r.channel * 17 + r.seq
               + int(r.value * 1000.0) + int(r.at) + len(r.unit) + r.valid) & _MASK
    return acc


def make_burst(rng: random.Random, base_seq: int) -> tuple[list[list[Reading]], bytes, int]:
    """One burst's inputs and the checksum the server must reply with."""
    posts = []
    seq = base_seq
    acc = 0
    for _ in range(POSTS_PER_BURST):
        readings = []
        for _ in range(READINGS_PER_POST):
            readings.append(Reading(
                station=rng.randrange(1, 5000),
                channel=rng.randrange(16),
                seq=seq,
                at=1.7e9 + rng.random() * 1e6,
                value=rng.gauss(20.0, 15.0),
                error=rng.random(),
                valid=rng.random() < 0.97,
                unit=rng.choice(_UNITS),
            ))
            seq += 1
        acc = fold_readings(acc, readings)
        posts.append(readings)
    blob = rng.randbytes(BLOB_BYTES)
    return posts, blob, acc ^ zlib.crc32(blob)


class IngestLayer(RemoteInterface):
    """Host-embedded sink: folds posted readings, answers with the checksum."""

    def __init__(self):
        self.acc = 0
        self.posts = 0

    def ingest(self, readings: list[Reading]) -> None:
        self.acc = fold_readings(self.acc, readings)
        self.posts += 1

    def digest(self, blob: bytes) -> int:
        result = self.acc ^ zlib.crc32(blob)
        self.acc = 0
        return result


class BatchMarshal(Workload):
    """Closed loop, one client: §3.4 bursts of posts flushed by a sync call."""

    name = "batch_marshal"
    op_legs = ("a",)
    #: Distinct bursts generated per run; the timed phase cycles over them.
    BURSTS = 8

    async def setup(self) -> None:
        self.bursts = [
            make_burst(self.rng, index * POSTS_PER_BURST * READINGS_PER_POST)
            for index in range(self.BURSTS)
        ]
        self.layer = IngestLayer()
        self.server = ClamServer()
        self.server.publish("perf.ingest", self.layer)
        address = await self.server.start(f"unix://{self.out_dir}/batch.sock")
        self.client = await ClamClient.connect(address)
        self.proxy = await self.client.lookup(IngestLayer, "perf.ingest")
        self.cursor = 0
        for _ in range(math.ceil(WARMUP_OPS / (POSTS_PER_BURST + 1))):
            await self.op_burst()

    async def op_burst(self) -> tuple[float, float] | None:
        """One burst; returns (burst seconds, flush seconds), or None if it failed."""
        posts, blob, expected = self.bursts[self.cursor % self.BURSTS]
        self.cursor += 1
        self.attempted += POSTS_PER_BURST + 1
        ingest = self.proxy.ingest
        start = _now()
        try:
            for readings in posts:
                await ingest(readings)
            flush_start = _now()
            reply = await self.proxy.digest(blob)
        except Exception:
            reply = None
        end = _now()
        if reply != expected:
            self.failed += POSTS_PER_BURST + 1
            return None
        return end - start, end - flush_start

    async def measure(self, seconds: float) -> None:
        end = _now() + seconds
        while _now() < end:
            # Leg b is the flushing call of leg a's burst, timed on its own.
            a, b = self.begin_block("a"), self.begin_block("b")
            deadline = _now() + BLOCK_S
            while _now() < deadline:
                timed = await self.op_burst()
                if timed is not None:
                    burst, flush = timed
                    a.samples.append(burst * 1e6)
                    a.done += POSTS_PER_BURST + 1
                    a.seconds += burst
                    b.samples.append(flush * 1e6)
                    b.done += 1
                    b.seconds += flush
                self.mark(a, b)

    def audit(self) -> list[str]:
        if self.layer.posts != self.cursor * POSTS_PER_BURST:
            return [f"server executed {self.layer.posts} posts, "
                    f"client made {self.cursor * POSTS_PER_BURST}"]
        return []

    async def teardown(self) -> None:
        await self.client.close()
        await self.server.shutdown()


# ---------------------------------------------------------------------------
# fanout_8


SUBSCRIBERS = 8
OPEN_LOOP_RATE = 500.0
WINDOW_POSTS = 64
#: Phase A latency limit on the delivery p95 (checked and reported by the run).
DELIVERY_P95_LIMIT_US = 5000.0
#: A turn of the loop this short ran nothing but the pacer.
QUIET_TURN_S = 0.00005


class FanoutHub(RemoteInterface):
    """Host-embedded publisher: subscribers join over the wire, the host posts."""

    def __init__(self):
        self.group = UpcallGroup("perf.fanout", queue_limit=4096)

    def join(self, proc: Callable[[int, float], None]) -> int:
        return self.group.subscribe(proc)


class _Subscriber:
    """One subscriber endpoint's audit state: the next seq it must see."""

    __slots__ = ("owner", "expect", "out_of_order")

    def __init__(self, owner: "Fanout8"):
        self.owner = owner
        self.expect = 0
        self.out_of_order = 0

    def on_delivery(self, seq: int, due: float) -> None:
        now = _now()
        owner = self.owner
        if seq == self.expect:
            self.expect = seq + 1
            owner.samples.append((now - due) * 1e6)
        else:
            # A repeat, a gap or a reordering: the delivery is failed
            # and the audit resynchronises on what arrived.
            self.out_of_order += 1
            owner.failed += 1
            self.expect = max(self.expect, seq + 1)
        owner.outstanding -= 1


class Fanout8(Workload):
    """One publisher, one UpcallGroup, 8 ClamClient subscribers."""

    name = "fanout_8"

    async def setup(self) -> None:
        self.hub = FanoutHub()
        self.server = ClamServer(degrade_upcalls=True)
        self.server.publish("perf.hub", self.hub)
        address = await self.server.start(f"unix://{self.out_dir}/fanout.sock")
        self.clients: list[ClamClient] = []
        self.subscribers: list[_Subscriber] = []
        #: Latencies of the current block's deliveries, post stamp to handler.
        self.samples: list[float] = []
        #: Deliveries posted and not yet handled.
        self.outstanding = 0
        self.seq = 0
        self.lag_us: list[float] = []
        for _ in range(SUBSCRIBERS):
            client = await ClamClient.connect(address)
            proxy = await client.lookup(FanoutHub, "perf.hub")
            subscriber = _Subscriber(self)
            await proxy.join(subscriber.on_delivery)
            self.clients.append(client)
            self.subscribers.append(subscriber)
        for _ in range(math.ceil(WARMUP_OPS / WINDOW_POSTS)):
            await self.op_window()
        self.warm_posts = self.seq

    def op_post(self, due: float) -> None:
        """Post one event to all subscribers; ``due`` rides along as its stamp."""
        self.attempted += SUBSCRIBERS
        self.outstanding += SUBSCRIBERS
        reached = self.hub.group.post(self.seq, due)
        self.seq += 1
        if reached != SUBSCRIBERS:
            self.failed += SUBSCRIBERS - reached
            self.outstanding -= SUBSCRIBERS - reached

    async def op_window(self, posts: int = WINDOW_POSTS) -> None:
        """Closed window: ``posts`` posts, then wait for every delivery."""
        for _ in range(posts):
            self.op_post(_now())
        await self.hub.group.flush(timeout=30.0)

    async def pace_until(self, due: float) -> bool:
        """Wait for ``due`` without charging the wait's own lateness to the system.

        ``asyncio.sleep`` wakes late by most of a millisecond, and a
        thread that sleeps lets the host clock its core down, so the
        first work after every wake runs slow by an amount that is the
        host's and not the repo's.  The pacer therefore never sleeps: it
        yields to the loop turn by turn, and the subscribers' tasks run
        during the yields.  Returns whether the last turn was the loop's
        alone with nothing in flight — only then is lateness the pacer's own.
        """
        before = _now()
        quiet = False
        while before < due:
            await asyncio.sleep(0)
            after = _now()
            quiet = after - before < QUIET_TURN_S
            before = after
        return quiet and self.outstanding == 0

    async def measure(self, seconds: float) -> None:
        if self.traced:
            # Traced, the open loop's posts go one at a time, each waited
            # for: the same singleton deliveries with a clear end to each
            # operation, and no idle time to mistake for the loop's own.
            await self._saturate(seconds * 2.0 / 3.0, "a", 1)
        else:
            await self._open_loop(seconds * 2.0 / 3.0)
        await self._saturate(seconds / 3.0, "b", WINDOW_POSTS)

    async def _open_loop(self, seconds: float) -> None:
        """Phase A: seeded Poisson arrivals at OPEN_LOOP_RATE posts/s.

        One block is BLOCK_S of arrivals and the wait for the last of
        their deliveries, so every delivery counts in the block that
        posted it; the schedule starts afresh with every block.  The
        reference routine is not timed here: run between two posts it
        leaves the caches cold for the second (delivery p50 482 -> 712 us).
        """
        expovariate = self.rng.expovariate
        end = _now() + seconds
        while _now() < end:
            block = self.begin_block("a")
            self.samples = block.samples
            start = due = _now()
            while True:
                due += expovariate(OPEN_LOOP_RATE)
                if due - start >= BLOCK_S:
                    break
                if await self.pace_until(due):
                    # When other tasks ran in the last turn the thread was
                    # the system's, and the wait is queueing that the
                    # due-time stamp rightly charges; only lateness on an
                    # idle system is the generator's own.
                    self.lag_us.append((_now() - due) * 1e6)
                self.op_post(due)
            await self.hub.group.flush(timeout=30.0)
            block.seconds = _now() - start
            block.done = len(block.samples)

    async def _saturate(self, seconds: float, leg: str, posts: int) -> None:
        """Phase B: closed window of ``posts`` outstanding posts."""
        end = _now() + seconds
        while _now() < end:
            block = self.begin_block(leg)
            self.samples = block.samples
            spent = self.ref.spent
            start = _now()
            deadline = start + BLOCK_S
            while _now() < deadline:
                await self.op_window(posts)
                self.mark(block)
            block.seconds = _now() - start - (self.ref.spent - spent)
            block.done = len(block.samples)

    def ops_done(self) -> int:
        return self.seq - self.warm_posts

    def audit(self) -> list[str]:
        problems = []
        for index, subscriber in enumerate(self.subscribers):
            if subscriber.expect != self.seq or subscriber.out_of_order:
                problems.append(
                    f"subscriber {index} saw seqs up to {subscriber.expect} of "
                    f"{self.seq}, {subscriber.out_of_order} out of order"
                )
        if self.lag_us:
            samples = [block.samples for block in self.blocks["a"]]
            lag_p95 = quantile(sorted(self.lag_us), 0.95)
            self.diagnostics["sched_lag_p95_us"] = lag_p95
            p50 = statistics.median(block_quantiles(samples, 0.5))
            if lag_p95 > p50 / 10.0:
                self.invalid.append(
                    f"generator ran late: sched_lag_p95_us {lag_p95:.1f} exceeds a "
                    f"tenth of delivery p50 {p50:.1f} us; the run is invalid"
                )
            p95 = statistics.median(block_quantiles(samples, 0.95))
            if p95 > DELIVERY_P95_LIMIT_US:
                self.limits_missed.append(
                    f"delivery p95 {p95:.1f} us misses the "
                    f"{DELIVERY_P95_LIMIT_US:.0f} us limit"
                )
        return problems

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        await self.hub.group.close()
        await self.server.shutdown()


# ---------------------------------------------------------------------------
# durable_replay


LIVE_EVENTS = 1000
PARKED_EVENTS = 20000
#: Posts to the parked subscriber between two reference ticks (~5 ms).
SPILL_GROUP = 500
TOPIC = "perf.durable"
DURABLE_ID = "perf-sub"


class DurableHub(RemoteInterface):
    """Host-embedded durable topic; the subscriber joins with its cursor."""

    def __init__(self, spool: Spool):
        self.group = UpcallGroup(TOPIC, store=spool, queue_limit=4096,
                                 resume_poll=0.01)

    def join(self, proc: Callable[[int, int, float], None], durable: str,
             resume_from: int) -> int:
        return self.group.subscribe(proc, durable=durable, resume_from=resume_from)


class DurableReplay(Workload):
    """Cycles of live delivery, park, spill, reconnect and credit-paced replay.

    Leg a is the publisher's side of a parked subscriber (one ``post()``;
    events the log absorbs per second), leg b the subscriber's (live
    delivery, post to handler; events replayed to it per second).
    """

    name = "durable_replay"

    async def setup(self) -> None:
        self.spool_dir = os.path.join(self.out_dir, f"spool-{os.getpid()}")
        shutil.rmtree(self.spool_dir, ignore_errors=True)
        # The spool is handed to the group and not to server.attach_store():
        # bound to the server's metrics, every post to a parked subscriber
        # refreshes the backlog gauges by summing the whole log index, and
        # spill is quadratic in the backlog (20 000 events take 6 s).
        self.spool = Spool(self.spool_dir, fsync="batch")
        self.server = ClamServer(degrade_upcalls=True)
        self.hub = DurableHub(self.spool)
        self.server.publish("perf.durable", self.hub)
        self.address = await self.server.start(f"unix://{self.out_dir}/durable.sock")
        self.values = [self.rng.getrandbits(31) for _ in range(4096)]
        self.cursor = ReplayCursor()
        self.first_seq = 0
        self.posted = 0
        self.received = 0
        #: Where verified live deliveries' latencies go; None outside the live phase.
        self.samples: list[float] | None = None
        self.cycle_seconds = 0.0
        self.client: ClamClient | None = None
        await self._connect()
        await self.op_cycle(live=WARMUP_OPS // 2, parked=WARMUP_OPS // 2)
        self.log = self.spool.topic(TOPIC).subscription(DURABLE_ID).log
        self.warm = (self.posted, self.log.fsyncs, self.log.appended)

    async def _connect(self) -> None:
        self.client = await ClamClient.connect(self.address)
        proxy = await self.client.lookup(DurableHub, "perf.durable")
        await proxy.join(self.on_event, DURABLE_ID, self.cursor.last)

    def on_event(self, seq: int, value: int, stamp: float) -> None:
        now = _now()
        last = self.cursor.last
        if not self.cursor.admit(seq):
            self.failed += 1  # arrived twice, or out of order
            return
        if last == 0:
            self.first_seq = seq
        self.received += 1
        if ((last and seq != last + 1)
                or value != self.values[(seq - self.first_seq) & 4095]):
            self.failed += 1  # a gap before it, or a damaged value
        elif self.samples is not None:
            self.samples.append((now - stamp) * 1e6)

    async def op_cycle(self, live: int = LIVE_EVENTS, parked: int = PARKED_EVENTS) -> None:
        group = self.hub.group
        post = group.post
        values = self.values
        failed_before = self.failed
        self.attempted += live + 1 + parked
        a, b = self.begin_block("a"), self.begin_block("b")
        cycle_start = _now()
        # Live: the steady path, which never touches the log.  The burst is
        # one operation, so the reference is timed on either side of it.
        tick = self.ref.tick()
        self.samples = b.samples
        for index in range(self.posted, self.posted + live):
            post(values[index & 4095], _now())
        self.posted += live
        await group.flush(timeout=30.0)
        self.samples = None
        b.marks.append((len(b.samples), (tick + self.ref.tick()) / 2.0))
        # Park: the subscriber's connection goes away; the next delivery
        # finds the dead path and parks the durable identity.
        await self.client.close()
        post(values[self.posted & 4095], _now())
        self.posted += 1
        while group.parked_subscribers != 1:
            await asyncio.sleep(0.001)
        # Spill: post while parked, each post timed, until the log covers them.
        subscription = self.spool.topic(TOPIC).subscription(DURABLE_ID)
        target = subscription.backlog_events + parked
        spill = a.samples
        spent = self.ref.spent
        start = before = _now()
        for index in range(self.posted, self.posted + parked):
            post(values[index & 4095], before)
            after = _now()
            spill.append((after - before) * 1e6)
            before = after
            if len(spill) % SPILL_GROUP == 0:
                self.mark(a)
                before = _now()
        self.posted += parked
        while subscription.backlog_events < target:
            await asyncio.sleep(0)
        a.seconds = _now() - start - (self.ref.spent - spent)
        a.done = parked
        # Replay: reconnect with the cursor; the clock runs from the join
        # until the last parked event has reached the handler.
        b.done = self.posted - self.received
        start = _now()
        await self._connect()
        await group.flush(timeout=60.0)
        b.seconds = _now() - start
        self.cycle_seconds += _now() - cycle_start
        missing = self.posted - self.received
        if missing or self.failed != failed_before:
            # The cycle's events are all in doubt: none is timed.
            self.failed += missing
            self.blocks["a"].pop()
            self.blocks["b"].pop()

    async def measure(self, seconds: float) -> None:
        self.cycle_seconds = 0.0
        end = _now() + seconds
        while _now() < end:
            await self.op_cycle()
        posted, fsyncs, appended = self.warm
        self.diagnostics["fsyncs_per_kevent"] = (
            1000.0 * (self.log.fsyncs - fsyncs) / (self.log.appended - appended)
        )

    def op_seconds(self) -> float:
        return self.cycle_seconds

    def ops_done(self) -> int:
        return self.posted - self.warm[0]

    def audit(self) -> list[str]:
        problems = []
        if self.received != self.posted:
            problems.append(f"received {self.received} of {self.posted} events")
        if self.cursor.duplicates:
            problems.append(f"{self.cursor.duplicates} events arrived twice")
        return problems

    async def teardown(self) -> None:
        if self.client is not None:
            await self.client.close()
        await self.hub.group.close()
        self.spool.close()
        await self.server.shutdown()
        shutil.rmtree(self.spool_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig51Roundtrip, BatchMarshal, Fanout8, DurableReplay)
}

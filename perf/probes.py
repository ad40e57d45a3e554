"""Isolated probes: one public call of one layer, timed from outside.

Every probe times a short loop over one public entry point with inputs
shaped like the workloads' messages.  All probes run round-robin for
``repeats`` rounds in one fresh interpreter and each is quoted at its
**minimum** per-operation time, with the median beside it — the
interleaved-minima method of the repo's ``telemetry_overhead`` record:
whatever else the host is doing only ever adds time, so the minimum
pins every probe to the same undisturbed operating point, which is what
makes one commit's probes comparable with the next's.  The
loop's own ``for`` costs ~20 ns an iteration and is left in.

Run as ``python -m perf.probes --repeats N --out-dir DIR``; prints one
JSON object mapping metric name to ``{value, median, unit, repeats}``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.bundlers import default_registry
from repro.cluster import UpcallGroup
from repro.core import UpcallPort, UpcallSignature
from repro.flow import BoundedQueue, CreditGate, CreditLedger
from repro.handles import Handle, ObjectTable
from repro.ipc import MessageChannel, dial, serve
from repro.obs import FlightRecorder, MetricsRegistry, StageTimer
from repro.obs.stages import STAGE_DISPATCH
from repro.rpc import BatchQueue, Dispatcher, RpcConnection
from repro.store import SubscriberLog, scan
from repro.stubs import RemoteInterface, Skeleton, build_proxy
from repro.tasks import TaskPool
from repro.wire import (
    BatchMessage,
    CallMessage,
    CreditMessage,
    ReplyMessage,
    decode_message,
    encode_message,
    encode_upcall_template,
    patch_upcall_frame,
)
from repro.xdr import decode_with, encode_with, xdr_filter_for

from perf.workloads import SUBSCRIBERS, Reading, make_burst

_now = time.perf_counter
_SCALE = {"ns": 1e9, "us": 1e6}


@dataclass
class Probe:
    name: str
    unit: str
    #: Operations per call of ``run``.
    per: int
    #: Runs ``per`` operations; returns the seconds they took.
    run: Callable[[], Awaitable[float]]
    samples: list[float] = field(default_factory=list)


def _sync(name: str, unit: str, per: int, body: Callable[[], None]) -> Probe:
    """A probe whose ``per`` operations are one synchronous ``body()``."""
    async def run() -> float:
        start = _now()
        body()
        return _now() - start
    return Probe(name, unit, per, run)


def _async(name: str, unit: str, per: int, body: Callable[[], Awaitable[None]]) -> Probe:
    async def run() -> float:
        start = _now()
        await body()
        return _now() - start
    return Probe(name, unit, per, run)


class _Layer(RemoteInterface):
    """The fig51_roundtrip layer's call surface, without the wire."""

    def __init__(self):
        self.value = 7

    def total(self) -> int:
        return self.value


class _Loopback:
    """A CallEndpoint that hands the request straight to a Skeleton."""

    def __init__(self, skeleton: Skeleton):
        self.skeleton = skeleton
        self.registry = skeleton.registry

    async def call(self, handle: Handle, method: str, args: bytes) -> bytes:
        return await self.skeleton.dispatch(method, args)

    async def post(self, handle: Handle, method: str, args: bytes) -> None:
        await self.skeleton.dispatch(method, args)


class _Capture:
    """Stands where a MessageChannel would; keeps the last message sent."""

    def __init__(self):
        self.protocol_version = 5
        self.last = None

    async def send(self, message) -> None:
        self.last = message


async def _noop(*_args) -> None:
    return None


def _check(ok: bool, what: str) -> None:
    """A probe's inputs must round-trip before its timings mean anything."""
    if not ok:
        raise RuntimeError(f"probe self-check failed: {what}")


def _prims(stream, value):
    """Bidirectional filter over the primitives of a small call."""
    a, b, c, d = value if stream.encoding else (None, None, None, None)
    return (stream.xhyper(a), stream.xdouble(b), stream.xbool(c), stream.xstring(d))


class Bench:
    """Builds the probes and owns what they leave open."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.probes: list[Probe] = []
        self._closers: list[Callable[[], Awaitable[None]]] = []
        self._store_dir = os.path.join(out_dir, f"probe-store-{os.getpid()}")
        posts, self.blob, _ = make_burst(random.Random("perf.probes"), 0)
        self.readings: list[Reading] = posts[0]

    def add(self, probe: Probe) -> None:
        self.probes.append(probe)

    async def close(self) -> None:
        for closer in reversed(self._closers):
            await closer()
        shutil.rmtree(self._store_dir, ignore_errors=True)

    async def build(self) -> None:
        self._xdr()
        self._bundlers()
        self._wire()
        await self._ipc()
        self._stubs()
        await self._rpc()
        self._core()
        self._tasks_and_handles()
        self._flow()
        self._cluster()
        self._store()
        self._obs()

    # -- xdr, bundlers ------------------------------------------------------------

    def _xdr(self) -> None:
        value = (123456789, 21.5, True, "degC")
        data = encode_with(_prims, value)
        _check(decode_with(_prims, data) == value, "xdr primitives round-trip")
        opaque = xdr_filter_for(bytes)
        blob = self.blob
        blob_data = encode_with(opaque, blob)

        def enc():
            for _ in range(200):
                encode_with(_prims, value)

        def dec():
            for _ in range(200):
                decode_with(_prims, data)

        def enc_blob():
            for _ in range(100):
                encode_with(opaque, blob)

        def dec_blob():
            for _ in range(100):
                decode_with(opaque, blob_data)

        self.add(_sync("probe.xdr.prims_encode_ns", "ns", 200, enc))
        self.add(_sync("probe.xdr.prims_decode_ns", "ns", 200, dec))
        self.add(_sync("probe.xdr.opaque16k_encode_ns", "ns", 100, enc_blob))
        self.add(_sync("probe.xdr.opaque16k_decode_ns", "ns", 100, dec_blob))

    def _bundlers(self) -> None:
        registry = default_registry()
        one = registry.bundler_for(Reading)
        many = registry.bundler_for(list[Reading])
        reading, readings = self.readings[0], self.readings
        data_one = encode_with(one, reading)
        data_many = encode_with(many, readings)
        _check(decode_with(many, data_many) == readings, "16 readings round-trip")
        self.post_payload = data_many

        def enc():
            for _ in range(100):
                encode_with(one, reading)

        def dec():
            for _ in range(100):
                decode_with(one, data_one)

        def enc16():
            for _ in range(10):
                encode_with(many, readings)

        def dec16():
            for _ in range(10):
                decode_with(many, data_many)

        self.add(_sync("probe.bundlers.record_encode_ns", "ns", 100, enc))
        self.add(_sync("probe.bundlers.record_decode_ns", "ns", 100, dec))
        self.add(_sync("probe.bundlers.record_x16_encode_ns", "ns", 10, enc16))
        self.add(_sync("probe.bundlers.record_x16_decode_ns", "ns", 10, dec16))

    # -- wire ---------------------------------------------------------------------

    def _wire(self) -> None:
        call = CallMessage(serial=7, oid=3, tag=0x1234_5678_9ABC, method="total",
                           args=b"", expects_reply=True, priority=2)
        reply = ReplyMessage(serial=7, results=b"\0" * 8)
        batch = BatchMessage(calls=tuple(
            CallMessage(serial=100 + i, oid=3, tag=0x1234_5678_9ABC, method="ingest",
                        args=self.post_payload, expects_reply=False, priority=3)
            for i in range(64)
        ))
        credit = CreditMessage(msg_credit=512, byte_credit=8 << 20)
        upcall_args = UpcallSignature(
            (int, float), type(None), default_registry()
        ).bundle_args((41, 1234.5))
        call_data, reply_data, batch_data = map(encode_message, (call, reply, batch))
        frame = bytes(patch_upcall_frame(encode_upcall_template(upcall_args), 9, 4))
        _check(decode_message(frame).ruc_id == 4, "patched upcall frame decodes")

        def loop(fn, arg, n):
            def body():
                for _ in range(n):
                    fn(arg)
            return body

        def patch():
            # One post to 8 subscribers: one template, eight patches.
            for serial in range(20):
                template = encode_upcall_template(upcall_args)
                for ruc in range(SUBSCRIBERS):
                    patch_upcall_frame(template, serial, ruc)

        def credit_roundtrip():
            for _ in range(100):
                decode_message(encode_message(credit))

        add = self.add
        add(_sync("probe.wire.call_encode_ns", "ns", 100, loop(encode_message, call, 100)))
        add(_sync("probe.wire.call_decode_ns", "ns", 100, loop(decode_message, call_data, 100)))
        add(_sync("probe.wire.reply_encode_ns", "ns", 100, loop(encode_message, reply, 100)))
        add(_sync("probe.wire.reply_decode_ns", "ns", 100, loop(decode_message, reply_data, 100)))
        add(_sync("probe.wire.batch64_encode_ns", "ns", 2, loop(encode_message, batch, 2)))
        add(_sync("probe.wire.batch64_decode_ns", "ns", 2, loop(decode_message, batch_data, 2)))
        add(_sync("probe.wire.upcall_patch_ns", "ns", 20 * SUBSCRIBERS, patch))
        add(_sync("probe.wire.upcall_decode_ns", "ns", 100, loop(decode_message, frame, 100)))
        add(_sync("probe.wire.credit_roundtrip_ns", "ns", 100, credit_roundtrip))

    # -- ipc ----------------------------------------------------------------------

    async def _echo_pair(self, url: str):
        """An echo listener at ``url`` and a connection dialled to it."""
        async def echo(conn) -> None:
            try:
                while True:
                    await conn.send(await conn.recv())
            except Exception:
                return

        listener = await serve(url, echo)
        conn = await dial(listener.address)
        self._closers += [listener.close, conn.close]
        return conn

    async def _ipc(self) -> None:
        unix = await self._echo_pair(f"unix://{self.out_dir}/probe-echo.sock")
        memory = await self._echo_pair(f"memory://perf-probe-echo-{os.getpid()}")
        small, large = b"\x05" * 64, self.blob

        def rtt(conn, frame, n):
            async def body():
                for _ in range(n):
                    await conn.send(frame)
                    await conn.recv()
            return body

        # write_frames: 64 one-KiB frames in one coalesced write, read
        # back by a peer that answers once it has seen all of them.
        async def sink(conn) -> None:
            try:
                while True:
                    for _ in range(64):
                        await conn.recv()
                    await conn.send(b"\x01")
            except Exception:
                return

        listener = await serve(f"unix://{self.out_dir}/probe-sink.sock", sink)
        sink_conn = await dial(listener.address)
        self._closers += [listener.close, sink_conn.close]
        frames = [self.post_payload] * 64

        async def write_frames():
            for _ in range(2):
                await sink_conn.send_many(frames)
                await sink_conn.recv()

        add = self.add
        add(_async("probe.ipc.unix_frame_rtt_us", "us", 10, rtt(unix, small, 10)))
        add(_async("probe.ipc.unix_frame16k_rtt_us", "us", 10, rtt(unix, large, 10)))
        add(_async("probe.ipc.memory_frame_rtt_us", "us", 10, rtt(memory, small, 10)))
        add(_async("probe.ipc.write_frames_x64_us", "us", 2, write_frames))

    # -- stubs, rpc ---------------------------------------------------------------

    def _stubs(self) -> None:
        skeleton = Skeleton(_Layer(), default_registry())
        proxy = build_proxy(_Layer, _Loopback(skeleton), Handle(oid=1, tag=1))

        async def through_proxy():
            total = proxy.total
            for _ in range(50):
                await total()

        async def dispatch():
            for _ in range(50):
                await skeleton.dispatch("total", b"")

        self.add(_async("probe.stubs.proxy_loopback_us", "us", 50, through_proxy))
        self.add(_async("probe.stubs.skeleton_dispatch_us", "us", 50, dispatch))

    async def _rpc(self) -> None:
        registry = default_registry()
        dispatcher = Dispatcher(registry)
        handle = dispatcher.export(_Layer())
        capture = _Capture()
        serials = itertools.count(1)

        async def dispatch_call():
            for _ in range(20):
                await dispatcher.handle_message(
                    CallMessage(serial=next(serials), oid=handle.oid, tag=handle.tag,
                                method="total", args=b"", expects_reply=True),
                    capture,
                )

        await dispatch_call()
        _check(isinstance(capture.last, ReplyMessage), "dispatcher answered with a reply")

        # RpcConnection.call -> Dispatcher over memory://: the RPC runtime
        # with the asyncio hop and without the socket.
        served = Dispatcher(registry)
        served_handle = served.export(_Layer())

        async def serve_rpc(conn) -> None:
            channel = MessageChannel(conn)
            try:
                while True:
                    await served.handle_message(await channel.recv(), channel)
            except Exception:
                return

        listener = await serve(f"memory://perf-probe-rpc-{os.getpid()}", serve_rpc)
        rpc = RpcConnection(MessageChannel(await dial(listener.address)), registry)
        self._closers += [listener.close, rpc.close]

        async def call_memory():
            for _ in range(10):
                await rpc.call(served_handle, "total", b"")

        queue = BatchQueue(_noop, max_batch=1 << 30, flush_delay=None)
        post = CallMessage(serial=1, oid=3, tag=9, method="ingest",
                           args=self.post_payload, expects_reply=False)

        async def batch_post() -> float:
            start = _now()
            for _ in range(64):
                await queue.post(post)
            elapsed = _now() - start
            await queue.flush()
            return elapsed

        async def batch_flush() -> float:
            for _ in range(64):
                await queue.post(post)
            start = _now()
            await queue.flush()
            return _now() - start

        add = self.add
        add(_async("probe.rpc.dispatch_call_us", "us", 20, dispatch_call))
        add(_async("probe.rpc.call_memory_us", "us", 10, call_memory))
        add(Probe("probe.rpc.batch_post_ns", "ns", 64, batch_post))
        add(Probe("probe.rpc.batch_flush64_us", "us", 1, batch_flush))

    # -- core, tasks, handles -----------------------------------------------------

    def _core(self) -> None:
        port = UpcallPort("probe")
        port.register(lambda i: i)
        signature = UpcallSignature((int, float), type(None), default_registry())
        args = (41, 1234.5)
        data = signature.bundle_args(args)

        async def deliver():
            for i in range(100):
                await port.deliver(i)

        def bundle():
            for _ in range(100):
                signature.bundle_args(args)

        def unbundle():
            for _ in range(100):
                signature.unbundle_args(data)

        self.add(_async("probe.core.port_deliver_us", "us", 100, deliver))
        self.add(_sync("probe.core.sig_bundle_args_ns", "ns", 100, bundle))
        self.add(_sync("probe.core.sig_unbundle_args_ns", "ns", 100, unbundle))

    def _tasks_and_handles(self) -> None:
        pool = TaskPool(4, "perf-probe")
        self._closers.append(pool.close)

        async def job() -> int:
            return 1

        async def hop():
            for _ in range(20):
                await pool.run(job)

        table = ObjectTable()
        handle = table.issue(object(), "Probe")

        def lookup():
            descriptor = table.descriptor
            for _ in range(200):
                descriptor(handle)

        self.add(_async("probe.tasks.pool_hop_us", "us", 20, hop))
        self.add(_sync("probe.handles.lookup_ns", "ns", 200, lookup))

    # -- flow, cluster ------------------------------------------------------------

    def _flow(self) -> None:
        gate = CreditGate()
        gate.update(1 << 60, 1 << 60)
        costs = [1100] * 64
        queue: BoundedQueue[int] = BoundedQueue(4096)
        ledger = CreditLedger(_noop)

        async def acquire():
            for _ in range(100):
                await gate.acquire(1100)

        async def acquire_batch():
            for _ in range(4):
                await gate.acquire_batch(costs)

        def offer_pop():
            offer = queue.offer
            for _ in range(4):
                for item in range(64):
                    offer(item)
                queue.pop_all()

        async def drained():
            for _ in range(100):
                await ledger.drained(1100)

        add = self.add
        add(_async("probe.flow.gate_acquire_ns", "ns", 100, acquire))
        add(_async("probe.flow.gate_acquire_batch64_ns", "ns", 4 * 64, acquire_batch))
        add(_sync("probe.flow.queue_offer_pop_ns", "ns", 4 * 64, offer_pop))
        add(_async("probe.flow.ledger_drained_ns", "ns", 100, drained))

    def _cluster(self) -> None:
        group = UpcallGroup("perf.probe", queue_limit=4096)
        self._closers.append(group.close)
        seen = [0]

        def handler(seq: int, stamp: float) -> None:
            seen[0] += 1

        for _ in range(SUBSCRIBERS):
            group.subscribe(handler)

        async def post() -> float:
            start = _now()
            for seq in range(32):
                group.post(seq, 1234.5)
            elapsed = _now() - start
            await group.flush()
            return elapsed

        async def deliver():
            for seq in range(8):
                group.post(seq, 1234.5)
                await group.flush()

        self.add(Probe("probe.cluster.post_ns_per_sub", "ns", 32 * SUBSCRIBERS, post))
        self.add(_async("probe.cluster.local_delivery_us", "us", 8, deliver))

    # -- store, obs ---------------------------------------------------------------

    def _store(self) -> None:
        os.makedirs(self._store_dir, exist_ok=True)
        payload = UpcallSignature(
            (int, int, float), type(None), default_registry()
        ).bundle_args((41, 99, 1234.5))
        seqs = itertools.count(1)

        # The documented policy, fsync and all: one flush to disk per 64
        # appends.  Disk behaviour is whatever the sandbox gives.
        synced = SubscriberLog(os.path.join(self._store_dir, "synced.log"),
                               fsync="batch", sync_every=1).open()

        def append64():
            synced.append_many([(next(seqs), payload) for _ in range(64)])

        filled = SubscriberLog(os.path.join(self._store_dir, "filled.log"),
                               fsync="never").open()
        filled.append_many([(seq, payload) for seq in range(1, 1025)])
        with open(filled.path, "rb") as fh:
            image = fh.read()
        _check(len(scan(image).records) == 1024, "log image scans to 1024 records")

        def replay():
            filled.replay(0, max_events=1024)

        acked = SubscriberLog(os.path.join(self._store_dir, "acked.log"),
                              fsync="never").open()
        acked.append_many([(seq, payload) for seq in range(1, 4097)])
        cursor = itertools.count(1)

        def ack():
            for _ in range(4):
                acked.ack(next(cursor))

        def scan_image():
            scan(image)

        async def close_logs() -> None:
            for log in (synced, filled, acked):
                log.close()

        self._closers.append(close_logs)
        add = self.add
        add(_sync("probe.store.append64_us", "us", 1, append64))
        add(_sync("probe.store.replay_ns_per_event", "ns", 1024, replay))
        add(_sync("probe.store.ack_us", "us", 4, ack))
        add(_sync("probe.store.scan_ns_per_record", "ns", 1024, scan_image))

    def _obs(self) -> None:
        registry = MetricsRegistry()
        counter = registry.counter("perf.probe.count")
        histogram = registry.histogram("perf.probe.us")
        flight = FlightRecorder(2048)
        stages = StageTimer(MetricsRegistry())
        held = _now()

        def inc():
            for _ in range(500):
                counter.inc()

        def observe():
            for _ in range(500):
                histogram.observe(18.25)

        def note():
            for _ in range(500):
                flight.note("call", "perf.layer", "total", held)

        def stage():
            for _ in range(500):
                stages.observe(STAGE_DISPATCH, 18.25)

        add = self.add
        add(_sync("probe.obs.counter_inc_ns", "ns", 500, inc))
        add(_sync("probe.obs.histogram_observe_ns", "ns", 500, observe))
        add(_sync("probe.obs.flight_note_ns", "ns", 500, note))
        add(_sync("probe.obs.stage_timer_ns", "ns", 500, stage))


async def run_probes(repeats: int, out_dir: str) -> dict:
    bench = Bench(out_dir)
    try:
        await bench.build()
        for probe in bench.probes:
            await probe.run()  # warm: imports, caches, specialised call sites
        for _ in range(repeats):
            for probe in bench.probes:
                probe.samples.append(await probe.run() / probe.per)
    finally:
        await bench.close()
    return {
        probe.name: {
            "value": min(probe.samples) * _SCALE[probe.unit],
            "median": statistics.median(probe.samples) * _SCALE[probe.unit],
            "unit": probe.unit,
            "repeats": len(probe.samples),
        }
        for probe in bench.probes
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perf.probes")
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    print(json.dumps(asyncio.run(run_probes(args.repeats, out_dir))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

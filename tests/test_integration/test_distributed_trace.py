"""End-to-end distributed tracing across calls, batches, and upcalls.

The observability counterpart of Figure 4-1: client B's synchronous
call enters the server, the handler performs a distributed upcall to
client A's registered procedure, and every span — in three different
runtimes — carries one ``trace_id`` with correct parent/child edges,
stitched over the wire by the ``trace_id``/``parent_span`` fields of
CALL and UPCALL frames.
"""

import itertools
import json

from repro.bench.scenarios import POKER_SOURCE, PokerIface
from repro.bundlers import default_registry
from repro.client import ClamClient
from repro.ipc import MessageChannel, dial
from repro.obs.export import ChromeTraceExporter, render_trace_tree
from repro.server import ClamServer
from repro.trace import (
    KIND_CALL,
    KIND_CLIENT_CALL,
    KIND_UPCALL,
    KIND_UPCALL_EXEC,
    TimelineRecorder,
)
from repro.rpc import RpcConnection
from repro.server.builtin import BUILTIN_HANDLE, ClamServerInterface
from repro.stubs import build_proxy
from repro.wire import PROTOCOL_VERSION, ChannelRole, HelloMessage
from tests.support import async_test

_ids = itertools.count(1)


async def poker_fixture(**connect_b_kwargs):
    """Server + client A (registers the RUC) + client B (will poke)."""
    server = ClamServer()
    address = await server.start(f"unix:///tmp/dtrace-{next(_ids)}.sock")
    client_a = await ClamClient.connect(address)
    await client_a.load_module("poker", POKER_SOURCE)
    poker_a = await client_a.create(PokerIface)
    await poker_a.register(lambda i: i * 10)
    await client_a.publish("poker", poker_a)
    client_b = await ClamClient.connect(address, **connect_b_kwargs)
    poker_b = await client_b.lookup(PokerIface, "poker")
    return server, client_a, client_b, poker_b


async def teardown(server, *clients):
    for client in clients:
        await client.close()
    await server.shutdown()


def spans_of(recorder, kind):
    return [e for e in recorder.events if e.kind == kind and e.phase == "end"]


class TestDistributedTrace:
    @async_test
    async def test_call_handler_upcall_execution_share_one_trace(self):
        server, client_a, client_b, poker_b = await poker_fixture()
        rec_a, rec_b, rec_s = (
            TimelineRecorder(), TimelineRecorder(), TimelineRecorder(),
        )
        client_a.tracer.subscribe(rec_a)
        client_b.tracer.subscribe(rec_b)
        server.tracer.subscribe(rec_s)

        assert await poker_b.poke(2) == 10  # 0*10 + 1*10

        # Spans: B's sync call; the server handler; two distributed
        # upcalls; two RUC executions in A.
        [call_b] = spans_of(rec_b, KIND_CLIENT_CALL)
        handler_spans = spans_of(rec_s, KIND_CALL)
        [handler] = [e for e in handler_spans if "poke" in e.name]
        upcalls = spans_of(rec_s, KIND_UPCALL)
        execs = spans_of(rec_a, KIND_UPCALL_EXEC)
        assert len(upcalls) == 2 and len(execs) == 2

        # One trace across all three processes.
        trace_id = call_b.trace_id
        assert trace_id
        for event in [handler, *upcalls, *execs]:
            assert event.trace_id == trace_id

        # Parent/child edges: call <- handler <- upcall <- execution.
        assert call_b.parent_id == 0
        assert handler.parent_id == call_b.span_id
        for upcall in upcalls:
            assert upcall.parent_id == handler.span_id
        assert {e.parent_id for e in execs} == {u.span_id for u in upcalls}
        await teardown(server, client_a, client_b)

    @async_test
    async def test_chrome_export_has_three_process_lanes(self):
        server, client_a, client_b, poker_b = await poker_fixture()
        exporter = ChromeTraceExporter()
        exporter.attach(client_b.tracer, "client-b")
        exporter.attach(server.tracer, "server")
        exporter.attach(client_a.tracer, "client-a")
        await poker_b.poke(1)
        exporter.detach_all()

        document = json.loads(exporter.to_json())  # valid JSON by parse
        assert exporter.process_count() == 3
        slices = [r for r in document["traceEvents"] if r["ph"] == "X"]
        assert {r["pid"] for r in slices} == {1, 2, 3}
        # every lane contributed at least one slice of the same trace
        trace_ids = {r["args"]["trace_id"] for r in slices}
        assert len(trace_ids) == 1
        await teardown(server, client_a, client_b)

    @async_test
    async def test_render_tree_nests_all_parties(self):
        server, client_a, client_b, poker_b = await poker_fixture()
        rec_a, rec_b, rec_s = (
            TimelineRecorder(), TimelineRecorder(), TimelineRecorder(),
        )
        client_a.tracer.subscribe(rec_a)
        client_b.tracer.subscribe(rec_b)
        server.tracer.subscribe(rec_s)
        await poker_b.poke(1)
        text = render_trace_tree({
            "client-b": rec_b.events,
            "server": rec_s.events,
            "client-a": rec_a.events,
        })
        assert "[client-b]" in text and "[server]" in text
        assert "[client-a]" in text
        # the RUC execution is rendered deeper than the root call
        lines = text.splitlines()
        root_line = next(ln for ln in lines if "[client-b]" in ln)
        exec_line = next(ln for ln in lines if "[client-a]" in ln)
        def depth(line):
            return len(line) - len(line.lstrip("|`- "))
        assert depth(exec_line) > depth(root_line)
        await teardown(server, client_a, client_b)

    @async_test
    async def test_untraced_server_still_propagates_context(self):
        """A hop whose own tracer has no subscribers stays transparent:
        the trace flows from B's call through the server to A's RUC."""
        server, client_a, client_b, poker_b = await poker_fixture()
        rec_a, rec_b = TimelineRecorder(), TimelineRecorder()
        client_a.tracer.subscribe(rec_a)
        client_b.tracer.subscribe(rec_b)
        await poker_b.poke(1)
        [call_b] = spans_of(rec_b, KIND_CLIENT_CALL)
        [exec_a] = spans_of(rec_a, KIND_UPCALL_EXEC)
        assert exec_a.trace_id == call_b.trace_id
        # with no server spans in between, the call span is the parent
        assert exec_a.parent_id == call_b.span_id
        # the untraced server paid nothing beyond counters
        assert not server.tracer.active
        await teardown(server, client_a, client_b)


async def hello_rpc(address, version):
    """Open an RPC channel whose HELLO announces ``version``."""
    channel = MessageChannel(await dial(address))
    await channel.send(HelloMessage(role=ChannelRole.RPC, protocol_version=version))
    return channel, await channel.recv()


class TestVersionNegotiation:
    @async_test
    async def test_current_client_reports_current_version(self):
        server = ClamServer()
        address = await server.start(f"unix:///tmp/dtrace-{next(_ids)}.sock")
        channel, ack = await hello_rpc(address, PROTOCOL_VERSION)
        assert ack.protocol_version == PROTOCOL_VERSION
        await channel.close()
        await server.shutdown()

    @async_test
    async def test_future_client_version_negotiates_down(self):
        """A newer peer is answered with 5, and the wire then works."""
        server = ClamServer()
        address = await server.start(f"unix:///tmp/dtrace-{next(_ids)}.sock")
        channel, ack = await hello_rpc(address, 99)
        assert ack.protocol_version == PROTOCOL_VERSION == 5
        rpc = RpcConnection(channel, default_registry())
        builtin = build_proxy(ClamServerInterface, rpc, BUILTIN_HANDLE)
        assert await builtin.ping() >= 0
        await rpc.close()
        await server.shutdown()


class TestMetricsAcrossTheWire:
    @async_test
    async def test_builtin_metrics_scrape(self):
        server, client_a, client_b, poker_b = await poker_fixture()
        await poker_b.poke(2)
        snapshot = await client_b.server_metrics()
        assert snapshot["upcall.server.rtt_us.count"] == 2.0
        assert snapshot["upcall.server.rtt_us.mean"] > 0
        assert snapshot["rpc.server.call_us.Poker.poke.count"] >= 1.0
        # the client kept its own registry too
        local = client_b.metrics.snapshot()
        assert local["rpc.client.call_us.poke.count"] >= 1.0
        # instruments appear on first use: B ran no RUCs, so none exists
        assert "upcall.client.exec_us.count" not in local
        assert client_a.metrics.snapshot()["upcall.client.exec_us.count"] == 2.0
        await teardown(server, client_a, client_b)

    @async_test
    async def test_batch_flush_size_histogram(self):
        from repro.bench.scenarios import COUNTER_SOURCE, CounterIface

        server, client_a, client_b, _poker_b = await poker_fixture()
        await client_b.load_module("counter", COUNTER_SOURCE)
        counter = await client_b.create(CounterIface)
        for _ in range(8):
            await counter.add(1)  # void -> batched
        await client_b.sync()
        flushes = client_b.metrics.histogram("rpc.client.batch_flush_size")
        assert flushes.count >= 1
        assert flushes.mean >= 1.0
        assert sum(
            int(b) for b in flushes.bucket_counts
        ) == flushes.count
        await teardown(server, client_a, client_b)

"""What the benchmark promises to report: the source of ``BENCHMARK.json``.

``python perf/run.py --manifest`` prints ``BENCHMARK.json`` from these
tables, and ``--smoke`` checks that a run reports exactly these names
with these units, so the file at the repo root cannot drift from what
the code measures.
"""

from __future__ import annotations

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]
RUN_SECONDS = 24

#: One line each, at most 200 characters; the long form is in README.md.
WORKLOADS = [
    ("fig51_roundtrip",
     "Fig 5.1 same-host call and upcall, smallest arguments: per-message cost "
     "(stubs, wire, ipc, rpc, core, tasks) is everything; bundlers, batching, "
     "credits, cluster, store are bypassed."),
    ("batch_marshal",
     "64 batched posts of 16 records flushed by a 16 KiB sync call: bytes per "
     "message dominate, so bundlers, xdr, BatchQueue and the credit gate do the "
     "work and ipc little."),
    ("fanout_8",
     "One UpcallGroup, 8 subscribers, open loop at 500 posts/s then a closed "
     "window of 64: cluster queues, pumps, upcall templates and client dispatch "
     "dominate; the call path is idle."),
    ("durable_replay",
     "Park, spill and credit-paced replay of a durable subscriber over the wire: "
     "the only workload where store works at all; must be flat on the other "
     "three."),
]

#: workload -> leg -> (name of the operation, what its latency and its rate are).
LEGS = {
    "fig51_roundtrip": {
        "a": ("call", "sync call total() -> int, stub entry to result; calls "
                      "per second of a block of them"),
        "b": ("upcall", "distributed upcall proc(i) -> int, the server layer's "
                        "await to its result; upcalls per second"),
    },
    "batch_marshal": {
        "a": ("burst", "64 posted ingest() calls and the digest() call that "
                       "flushes them, first post to verified reply; the rate "
                       "counts all 65 calls"),
        "b": ("flush", "the flushing digest(blob) call alone, stub entry to "
                       "reply; flush calls per second spent in them"),
    },
    "fanout_8": {
        "a": ("delivery", "open loop at 500 posts/s: post due time to "
                          "subscriber handler; deliveries handled per second "
                          "of wall time at that offered load"),
        "b": ("window", "closed window of 64 posts then flush(): each "
                        "delivery from its post to its handler; deliveries "
                        "per second at saturation"),
    },
    "durable_replay": {
        "a": ("spill", "the publisher's side of a parked durable subscriber: "
                       "one post(); events per second until backlog_events "
                       "covers the 20 000 posted"),
        "b": ("replay", "the subscriber's side: live delivery, post to "
                        "handler, in the 1 000-event live phase; events per "
                        "second replayed over the wire under CREDIT pacing, "
                        "reconnect to last event"),
    },
}


#: name, unit, better, bound (share of the parent's median it may worsen by).
#: A bound is shared by all four workloads, so it has to clear the widest
#: spread any of them shows, three times over.  Ten runs of each on a quiet
#: sandbox spread (first to third quartile over median) by up to 0.05 on
#: the p50s (0.07 on durable_replay's b_p50_us), 0.05 on the rates, 0.07 on
#: the p95s (0.11 on batch_marshal's) and 0.13 on setup_s.
END_TO_END = [
    ("a_p50_us", "us", "lower", 0.15),
    ("a_p95_us", "us", "lower", 0.25),
    ("a_per_s", "1/s", "higher", 0.15),
    ("b_p50_us", "us", "lower", 0.15),
    ("b_p95_us", "us", "lower", 0.25),
    ("b_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

#: name, unit — every one a ``lower is better`` time of one public call.
PROBES = [
    ("probe.xdr.prims_encode_ns", "ns"),
    ("probe.xdr.prims_decode_ns", "ns"),
    ("probe.xdr.opaque16k_encode_ns", "ns"),
    ("probe.xdr.opaque16k_decode_ns", "ns"),
    ("probe.bundlers.record_encode_ns", "ns"),
    ("probe.bundlers.record_decode_ns", "ns"),
    ("probe.bundlers.record_x16_encode_ns", "ns"),
    ("probe.bundlers.record_x16_decode_ns", "ns"),
    ("probe.wire.call_encode_ns", "ns"),
    ("probe.wire.call_decode_ns", "ns"),
    ("probe.wire.reply_encode_ns", "ns"),
    ("probe.wire.reply_decode_ns", "ns"),
    ("probe.wire.batch64_encode_ns", "ns"),
    ("probe.wire.batch64_decode_ns", "ns"),
    ("probe.wire.upcall_patch_ns", "ns"),
    ("probe.wire.upcall_decode_ns", "ns"),
    ("probe.wire.credit_roundtrip_ns", "ns"),
    ("probe.ipc.unix_frame_rtt_us", "us"),
    ("probe.ipc.unix_frame16k_rtt_us", "us"),
    ("probe.ipc.memory_frame_rtt_us", "us"),
    ("probe.ipc.write_frames_x64_us", "us"),
    ("probe.stubs.proxy_loopback_us", "us"),
    ("probe.stubs.skeleton_dispatch_us", "us"),
    ("probe.rpc.dispatch_call_us", "us"),
    ("probe.rpc.call_memory_us", "us"),
    ("probe.rpc.batch_post_ns", "ns"),
    ("probe.rpc.batch_flush64_us", "us"),
    ("probe.core.port_deliver_us", "us"),
    ("probe.core.sig_bundle_args_ns", "ns"),
    ("probe.core.sig_unbundle_args_ns", "ns"),
    ("probe.tasks.pool_hop_us", "us"),
    ("probe.handles.lookup_ns", "ns"),
    ("probe.flow.gate_acquire_ns", "ns"),
    ("probe.flow.gate_acquire_batch64_ns", "ns"),
    ("probe.flow.queue_offer_pop_ns", "ns"),
    ("probe.flow.ledger_drained_ns", "ns"),
    ("probe.cluster.post_ns_per_sub", "ns"),
    ("probe.cluster.local_delivery_us", "us"),
    ("probe.store.append64_us", "us"),
    ("probe.store.replay_ns_per_event", "ns"),
    ("probe.store.ack_us", "us"),
    ("probe.store.scan_ns_per_record", "ns"),
    ("probe.obs.counter_inc_ns", "ns"),
    ("probe.obs.histogram_observe_ns", "ns"),
    ("probe.obs.flight_note_ns", "ns"),
    ("probe.obs.stage_timer_ns", "ns"),
]

TRACE_LAYERS = ("stubs", "bundlers", "wire", "ipc", "rpc", "flow", "core", "server",
                "client", "cluster", "store", "obs", "handler")
TRACE_WAIT_LAYERS = ("flow", "cluster", "rpc")


def per_layer() -> list[tuple[str, str, str]]:
    """name, unit, better for every per-layer metric."""
    rows = [(name, unit, "lower") for name, unit in PROBES]
    for layer in TRACE_LAYERS:
        rows.append((f"trace.{layer}.self_us", "us", "lower"))
        rows.append((f"trace.{layer}.calls", "count", "lower"))
    for layer in TRACE_WAIT_LAYERS:
        rows.append((f"trace.{layer}.wait_us", "us", "lower"))
    rows += [
        ("trace.bench.self_us", "us", "lower"),
        ("trace.loop_us", "us", "lower"),
        ("trace.op_us", "us", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.closure", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.ipc.frames_per_op", "count", "lower"),
        ("trace.ipc.writes_per_op", "count", "lower"),
        ("trace.flow.credit_msgs_per_op", "count", "lower"),
        ("trace.cluster.pump_wakeups_per_post", "count", "lower"),
        ("trace.store.fsyncs_per_kevent", "count", "lower"),
        ("trace.obs.notes_per_op", "count", "lower"),
        ("trace.missing_names", "count", "lower"),
        ("sched_lag_p95_us", "us", "lower"),
        ("ref_tick_us", "us", "lower"),
        ("a_p99_us", "us", "lower"),
        ("b_p99_us", "us", "lower"),
    ]
    return rows


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }

"""Machine-readable perf record for the marshalling hot path.

``python -m repro.bench --json BENCH_rpc.json`` times the
encode→wire→decode pipeline with plain ``time.perf_counter`` loops and
writes one JSON document: per-benchmark median/p95 microseconds, the
git SHA and date, and the derived compiled-vs-interpreted speedups.
Committing the file per PR gives the ROADMAP its tracked perf
trajectory — numbers are comparable run over run on the same machine,
and the *ratios* (speedups, per-call overheads) are comparable across
machines.

The benchmarks here deliberately measure the same operations as
``benchmarks/test_bundlers.py``/``test_xdr.py`` but without the
pytest-benchmark dependency, so the record can be produced in CI smoke
mode and on developer machines with one command.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

from repro.bundlers.auto import derive_bundler
from repro.wire import CallMessage, decode_message, encode_message
from repro.xdr import XdrStream

#: Bump when the record layout changes incompatibly.
SCHEMA = 1


# -- workloads ----------------------------------------------------------------

@dataclasses.dataclass
class _Point:
    x: int
    y: int


@dataclasses.dataclass
class _Reading:
    sensor: int
    seq: int
    value: float
    scale: float


def _xdr_primitives() -> None:
    enc = XdrStream.encoder()
    for i in range(50):
        enc.xint(i)
        enc.xdouble(i * 0.5)
        enc.xstring("label")
    data = enc.getvalue()
    enc.release()
    dec = XdrStream.decoder(data)
    for _ in range(50):
        dec.xint()
        dec.xdouble()
        dec.xstring()


def _record_roundtrip(bundler, items) -> None:
    enc = XdrStream.encoder()
    enc.xarray(bundler, items)
    data = enc.getvalue()
    enc.release()
    XdrStream.decoder(data).xarray(bundler)


def _message_roundtrip() -> None:
    message = CallMessage(
        serial=7, oid=3, tag=9, method="move", args=b"\x01\x02\x03" * 10,
        expects_reply=True, trace_id="t-abc", parent_span=77,
    )
    for _ in range(20):
        decode_message(encode_message(message))


def _workloads() -> dict[str, Callable[[], None]]:
    compiled_point = derive_bundler(_Point)
    compiled_reading = derive_bundler(_Reading)
    interp_point = getattr(compiled_point, "interpreted", compiled_point)
    interp_reading = getattr(compiled_reading, "interpreted", compiled_reading)
    points = [_Point(i, -i) for i in range(100)]
    readings = [_Reading(i, i * 2, i * 0.5, 1.5) for i in range(100)]
    return {
        "xdr_primitives_x50": _xdr_primitives,
        "bundle_point_x100_compiled": lambda: _record_roundtrip(compiled_point, points),
        "bundle_point_x100_interpreted": lambda: _record_roundtrip(interp_point, points),
        "bundle_reading_x100_compiled": lambda: _record_roundtrip(compiled_reading, readings),
        "bundle_reading_x100_interpreted": lambda: _record_roundtrip(interp_reading, readings),
        "wire_call_message_x20": _message_roundtrip,
    }


# -- measurement --------------------------------------------------------------

def _measure(fn: Callable[[], None], repeats: int) -> dict[str, float]:
    fn()  # warm caches (compiled plans, struct objects, buffer pool)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6)
    samples.sort()
    p95_index = min(len(samples) - 1, round(0.95 * (len(samples) - 1)))
    return {
        "median_us": round(statistics.median(samples), 3),
        "p95_us": round(samples[p95_index], 3),
        "min_us": round(samples[0], 3),
        "repeats": repeats,
    }


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


def _collect_fanout(quick: bool) -> dict[str, dict[str, float]]:
    """The cluster fan-out scenario (1 publisher, N subscribers)."""
    import asyncio
    import tempfile

    from repro.bench import fanout_bench

    with tempfile.TemporaryDirectory(prefix="clam-fanout-") as base_dir:
        return asyncio.run(fanout_bench.record(base_dir, quick=quick))


def _collect_overload(quick: bool) -> dict[str, dict[str, float]]:
    """Open-loop overload, with and without admission control."""
    import asyncio
    import tempfile

    from repro.bench import overload_bench

    with tempfile.TemporaryDirectory(prefix="clam-overload-") as base_dir:
        return asyncio.run(overload_bench.record(base_dir, quick=quick))


def _collect_pipeline(quick: bool) -> dict[str, dict[str, float]]:
    """Fan-out delivery decomposed into stage budgets."""
    import asyncio
    import tempfile

    from repro.bench import pipeline_bench

    with tempfile.TemporaryDirectory(prefix="clam-pipeline-") as base_dir:
        return asyncio.run(pipeline_bench.record(base_dir, quick=quick))


def _collect_pipelined(quick: bool) -> dict[str, dict[str, float]]:
    """Pipelined sync calls: sequential vs in-flight windows."""
    import asyncio

    from repro.bench import pipelined_bench

    return asyncio.run(pipelined_bench.record(quick=quick))


def _collect_durable(quick: bool) -> dict[str, dict[str, float]]:
    """Durable store-and-forward: steady overhead, spill, replay."""
    import asyncio
    import tempfile

    from repro.bench import durable_bench

    with tempfile.TemporaryDirectory(prefix="clam-durable-") as base_dir:
        return asyncio.run(durable_bench.record(base_dir, quick=quick))


def _collect_directory(quick: bool) -> dict[str, dict[str, float]]:
    """Replicated directory: resolve latency, watch, failover."""
    import asyncio

    from repro.bench import directory_bench

    return asyncio.run(directory_bench.record(quick=quick))


def _collect_telemetry_overhead(quick: bool) -> dict[str, float]:
    """Cost of the always-on telemetry relative to the wire hot path.

    Per wire message, the telemetry plane's always-on instruments are a
    flight-recorder note (clock reading reused from the dispatcher's
    latency math) and — on the upcall pipeline — a stage-clock
    histogram observation.  This entry prices one of each against one
    ``wire_call_message_x20`` message.

    Methodology: the three workloads run round-robin in one window and
    each is quoted at its **minimum** sample.  On shared machines the
    CPU frequency swings by more than the effect being measured, so
    medians of separately-timed runs are garbage; interleaved minima
    pin numerator and denominator to the same top-frequency operating
    point, which is what makes ``overhead_pct`` comparable run to run.
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stages import STAGE_DISPATCH, StageTimer

    flight = FlightRecorder(2048)
    hist = StageTimer(MetricsRegistry()).instrument(STAGE_DISPATCH)
    note, observe = flight.note, hist.observe
    message = CallMessage(
        serial=7, oid=3, tag=9, method="move", args=b"\x01\x02\x03" * 10,
        expects_reply=True, trace_id="t-abc", parent_span=77,
    )

    wire_count, op_count = 20, 2000
    reuse_ts = time.perf_counter()  # the reading the dispatcher holds

    def wire() -> None:
        for _ in range(wire_count):
            decode_message(encode_message(message))

    def flight_note() -> None:
        for _ in range(op_count):
            note("call", "bench.layer", "move", reuse_ts)

    def stage_observe() -> None:
        for _ in range(op_count):
            observe(18.25)

    workloads = (wire, flight_note, stage_observe)
    for fn in workloads:
        fn()  # warm: specialize call sites, seed the histogram mode cache
    minima = {fn: float("inf") for fn in workloads}
    for _ in range(60 if quick else 300):
        for fn in workloads:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < minima[fn]:
                minima[fn] = elapsed

    wire_ns = minima[wire] / wire_count * 1e9
    note_ns = minima[flight_note] / op_count * 1e9
    observe_ns = minima[stage_observe] / op_count * 1e9
    return {
        "wire_ns_per_msg": round(wire_ns, 1),
        "flight_note_ns": round(note_ns, 1),
        "stage_observe_ns": round(observe_ns, 1),
        "overhead_pct": round(100.0 * (note_ns + observe_ns) / wire_ns, 2),
    }


def collect(quick: bool = False) -> dict[str, Any]:
    """Run the suite and return the perf record as a plain dict."""
    repeats = 20 if quick else 200
    benchmarks = {
        name: _measure(fn, repeats) for name, fn in _workloads().items()
    }
    fanout = _collect_fanout(quick)
    overload = _collect_overload(quick)
    pipeline = _collect_pipeline(quick)
    pipelined_call = _collect_pipelined(quick)
    directory = _collect_directory(quick)
    durable = _collect_durable(quick)
    telemetry_overhead = _collect_telemetry_overhead(quick)

    def speedup(kind: str) -> float:
        interp = benchmarks[f"bundle_{kind}_x100_interpreted"]["median_us"]
        comp = benchmarks[f"bundle_{kind}_x100_compiled"]["median_us"]
        return round(interp / comp, 2) if comp else 0.0

    return {
        "schema": SCHEMA,
        "git_sha": _git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "quick": quick,
        "benchmarks": benchmarks,
        "fanout": fanout,
        "overload": overload,
        "pipeline": pipeline,
        "pipelined_call": pipelined_call,
        "directory": directory,
        "durable": durable,
        "telemetry_overhead": telemetry_overhead,
        "derived": {
            "compiled_speedup_point": speedup("point"),
            "compiled_speedup_reading": speedup("reading"),
        },
    }


def write_record(path: str, quick: bool = False) -> dict[str, Any]:
    """Collect, write ``path``, print a short table; returns the record."""
    record = collect(quick=quick)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    width = max(len(name) for name in record["benchmarks"])
    print(f"perf record -> {path}  (git {record['git_sha'][:12]}, "
          f"{'quick' if quick else 'full'} mode)")
    for name, stats in record["benchmarks"].items():
        print(f"  {name:<{width}}  median {stats['median_us']:>9.1f}us  "
              f"p95 {stats['p95_us']:>9.1f}us")
    for name, stats in record.get("fanout", {}).items():
        print(f"  {name:<{width}}  {stats['posts_per_sec']:>9.0f} posts/s  "
              f"p95 {stats['p95_delivery_us']:>9.1f}us")
    for name, stats in record.get("overload", {}).items():
        print(f"  {name:<{width}}  {stats['goodput_per_sec']:>9.0f} good/s  "
              f"shed {stats['shed_rate']:>5.0%}  "
              f"p95 {stats['p95_latency_us']:>9.1f}us")
    for name, stats in record.get("pipeline", {}).items():
        print(f"  {name:<{width}}  total {stats['total_mean_us']:>9.1f}us  "
              f"stages {stats['stage_sum_mean_us']:>9.1f}us  "
              f"coverage {stats['coverage_mean']:>5.0%}")
    for name, stats in record.get("pipelined_call", {}).items():
        print(f"  {name:<{width}}  {stats['calls_per_sec']:>9.0f} calls/s  "
              f"{stats['speedup_vs_seq']:>5.1f}x vs sequential")
    for name, stats in record.get("directory", {}).items():
        if name == "failover":
            print(f"  {'directory_failover':<{width}}  "
                  f"write {stats['write_recover_ms_p50']:>7.1f}ms  "
                  f"watch {stats['watch_recover_ms_p50']:>7.1f}ms")
        else:
            print(f"  {'directory_' + name:<{width}}  "
                  f"median {stats['p50_us']:>9.1f}us  "
                  f"p95 {stats['p95_us']:>9.1f}us")
    for name, stats in record.get("durable", {}).items():
        if name == "durable_steady_subs_1":
            print(f"  {name:<{width}}  p50 {stats['p50_delivery_us']:>9.1f}us  "
                  f"p95 {stats['p95_delivery_us']:>9.1f}us  "
                  f"{stats['overhead_vs_plain_p50']:>5.2f}x vs plain")
        else:
            print(f"  {name:<{width}}  "
                  f"{stats['events_per_sec']:>9.0f} events/s")
    overhead = record.get("telemetry_overhead")
    if overhead:
        print(f"  {'telemetry_overhead':<{width}}  "
              f"note {overhead['flight_note_ns']:>5.0f}ns  "
              f"observe {overhead['stage_observe_ns']:>5.0f}ns  "
              f"-> {overhead['overhead_pct']:.2f}% of wire")
    for name, value in record["derived"].items():
        print(f"  {name}: {value}x")
    return record


if __name__ == "__main__":
    write_record(sys.argv[1] if len(sys.argv) > 1 else "BENCH_rpc.json")

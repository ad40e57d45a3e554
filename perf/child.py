"""One workload in one fresh interpreter; prints its result as one JSON line.

Run by ``perf/run.py`` as ``python -m perf.child``.  A second
server/client pair built in an interpreter that has already run one
measures a quarter faster for the same Python work, so nothing is ever
measured in a process that measured something else first.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perf.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--traced", action="store_true")
    return parser.parse_args(argv)


async def _run(args: argparse.Namespace, tracer) -> dict:
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out_dir, traced=tracer is not None)
    await workload.setup()
    try:
        workload.start_clock()
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp and
        # this one measure interpreter start, imports, server start,
        # connects, lookups and warm-up together.
        setup_s = time.monotonic() - args.spawned_at
        if tracer is not None:
            tracer.start()
        await workload.measure(args.seconds)
        if tracer is not None:
            tracer.stop()
    finally:
        await workload.teardown()
        workload.ref.close()
    return {**workload.report(), "setup_s": setup_s}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    args.out_dir = os.path.abspath(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    tracer = None
    if args.traced:
        from perf import trace

        tracer = trace.Tracer()
        tracer.install()
    result = asyncio.run(_run(args, tracer))
    # ru_maxrss is KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary(result)
        tracer.write_chrome(os.path.join(args.out_dir, f"trace-{args.workload}.json"))
    for name in os.listdir(args.out_dir):
        if name.endswith(".sock"):
            os.unlink(os.path.join(args.out_dir, name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

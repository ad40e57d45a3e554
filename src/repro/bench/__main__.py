"""Command-line benchmark runner.

Usage::

    python -m repro.bench            # everything
    python -m repro.bench fig51      # the Figure 5.1 table
    python -m repro.bench batching   # the §3.4 batching ablation
    python -m repro.bench bundlers   # the §3.1 pointer-strategy baseline
    python -m repro.bench sweep      # the §2.1 placement experiment
    python -m repro.bench tasks      # the §4.4 task-reuse ablation
    python -m repro.bench upcalls    # the §4.4 channel-layout + concurrency ablations
    python -m repro.bench fanout     # cluster fan-out: 1 publisher, N subscribers
    python -m repro.bench overload   # open-loop overload, with/without admission
    python -m repro.bench pipeline   # fan-out latency decomposed into stage budgets
    python -m repro.bench pipelined  # sync calls: sequential vs in-flight window
    python -m repro.bench directory  # replicated directory: resolve, watch, failover
    python -m repro.bench durable    # durable store-and-forward: steady, spill, replay

    python -m repro.bench --json BENCH_rpc.json           # perf record
    python -m repro.bench --json BENCH_rpc.json --quick   # CI smoke mode
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.bench import (
    arq_bench,
    batching,
    bundlers_bench,
    directory_bench,
    durable_bench,
    fanout_bench,
    fig51,
    overload_bench,
    pipeline_bench,
    pipelined_bench,
    sweep_bench,
    tasks_bench,
    upcall_bench,
)

SUITES = (
    "fig51", "batching", "bundlers", "sweep", "tasks", "upcalls", "arq",
    "fanout", "overload", "pipeline", "pipelined", "directory", "durable",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's evaluation tables.",
    )
    parser.add_argument(
        "suite", nargs="?", choices=SUITES + ("all",), default="all"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write a machine-readable marshalling perf record (median/p95 "
        "per benchmark, git SHA, date) instead of the evaluation tables",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with --json: fewer repeats, for CI smoke runs",
    )
    args = parser.parse_args(argv)

    if args.json:
        from repro.bench import perf_record

        perf_record.write_record(args.json, quick=args.quick)
        return 0

    selected = SUITES if args.suite == "all" else (args.suite,)

    with tempfile.TemporaryDirectory(prefix="clam-bench-") as base_dir:
        for i, suite in enumerate(selected):
            if i:
                print()
            if suite == "fig51":
                fig51.main(base_dir)
            elif suite == "batching":
                batching.main(base_dir)
            elif suite == "bundlers":
                bundlers_bench.main()
            elif suite == "sweep":
                sweep_bench.main(base_dir)
            elif suite == "tasks":
                tasks_bench.main()
            elif suite == "upcalls":
                upcall_bench.main(base_dir)
            elif suite == "arq":
                arq_bench.main()
            elif suite == "fanout":
                fanout_bench.main(base_dir)
            elif suite == "overload":
                overload_bench.main(base_dir)
            elif suite == "pipeline":
                pipeline_bench.main(base_dir)
            elif suite == "pipelined":
                pipelined_bench.main()
            elif suite == "directory":
                directory_bench.main()
            elif suite == "durable":
                durable_bench.main(base_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

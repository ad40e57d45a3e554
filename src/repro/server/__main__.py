"""Standalone CLAM server.

Run a server other processes can dial::

    python -m repro.server --listen unix:///tmp/clam.sock
    python -m repro.server --listen tcp://127.0.0.1:0 --wm 80x24

Each bound address is printed as ``listening at <url>`` (port 0
resolves to the real port).  ``--wm`` additionally publishes a screen
and base window under the names ``screen`` and ``base``, turning the
process into the paper's window server; everything else arrives by
dynamic loading.  Stop with SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.server import ClamServer
from repro.tasks import TaskPool
from repro.wm import BaseWindow, Screen


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description="Run a CLAM server."
    )
    parser.add_argument(
        "--listen",
        action="append",
        required=True,
        metavar="URL",
        help="address to listen at (repeatable): unix:///path, "
             "tcp://host:port, memory://name",
    )
    parser.add_argument(
        "--wm",
        metavar="WxH",
        default=None,
        help="publish a WxH screen and base window (e.g. 80x24)",
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=1,
        metavar="N",
        help="faults before a loaded class is quarantined; 0 disables",
    )
    parser.add_argument(
        "--max-active-upcalls",
        type=int,
        default=1,
        metavar="K",
        help="concurrent upcalls admitted per client (paper: 1)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print one line per call/upcall/load/fault event",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (latencies, batch sizes, "
             "queue depths) at shutdown",
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        type=float,
        const=1.0,
        default=None,
        metavar="SECONDS",
        help="publish the clam.telemetry service and push metric "
             "snapshots to subscribed collectors every SECONDS "
             "(default 1.0); see python -m repro.obs.top",
    )
    parser.add_argument(
        "--node",
        default="",
        metavar="NAME",
        help="node name reported in telemetry pushes (default: pid-<pid>)",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory for automatic flight-recorder dumps on "
             "incidents (deadline expiry, upcall degradation, "
             "quarantine); without it dumps stay in memory only",
    )
    return parser.parse_args(argv)


async def run(args: argparse.Namespace) -> None:
    server = ClamServer(
        quarantine_after=args.quarantine_after,
        max_active_upcalls=args.max_active_upcalls,
        flight_dir=args.flight_dir,
    )
    if args.telemetry is not None:
        server.enable_telemetry(node=args.node, interval=args.telemetry)
        print(f"telemetry: pushing every {args.telemetry:g}s", flush=True)
    if args.trace:
        def print_event(event) -> None:
            duration = f" {event.duration_us:.0f}us" if event.duration_us else ""
            detail = f" {event.detail}" if event.detail else ""
            print(f"trace: {event.kind} {event.name} {event.phase}"
                  f"{duration}{detail}", flush=True)

        server.tracer.subscribe(print_event)
    if args.wm:
        width, _, height = args.wm.partition("x")
        screen = Screen(int(width), int(height))
        screen.use_tasks(TaskPool(max_tasks=1, name="screen-input"))
        base = BaseWindow(screen)
        server.publish("screen", screen)
        server.publish("base", base)
        print(f"window manager published: screen {width}x{height}", flush=True)

    for url in args.listen:
        address = await server.start(url)
        print(f"listening at {address}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("shutting down", flush=True)
    await server.shutdown()
    if args.metrics:
        print(server.metrics.render(), flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        asyncio.run(run(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's one command.

    python perf/run.py --seed N [--seconds 24] [--workload NAME]
                       [--trace 0|1] [--smoke] [--sets 1|2] [--manifest]

Every workload runs in fresh interpreters of its own (``perf/child.py``),
three per timed run: each sets up, warms up and measures a third of
``--seconds``; a metric is the better quartile over the blocks of all
three, and ``setup_s`` the median of three set-ups.  ``--trace 0`` reports the
end-to-end metrics of one workload, ``--trace 1`` its per-layer metrics
(isolated probes, a traced run and an untraced reference for it);
without ``--trace`` both are run for every workload, every metric is
printed by name with its unit, and the results are written to
``perf/out/``.  The last line of standard output is the result as one
JSON object.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import siblings as the package ``perf``; as top-level modules, ``trace``
# would shadow the standard library's.
sys.path[0] = str(ROOT)

from perf import compare, manifest  # noqa: E402
from perf.stats import quantile  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perf" / "out"
#: Fresh interpreters per timed run.
INTERPRETERS = 3
#: How a --trace 1 run's seconds are shared out.
REFERENCE_SHARE, TRACED_SHARE = 0.25, 0.35
PROBE_REPEATS, SMOKE_PROBE_REPEATS = 200, 20
CHILD_TIMEOUT_S = 170


class RunFailed(Exception):
    """A child interpreter failed, or what it measured is not valid."""


def spawn(module: str, *arguments: str) -> dict:
    """Run ``python -m module`` in a fresh interpreter; returns its JSON result."""
    environment = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", module, *arguments],
        cwd=ROOT, env=environment, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RunFailed(f"{module} {' '.join(arguments)} exited "
                        f"{done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_child(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    result = spawn(
        "perf.child", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--out-dir", str(OUT),
        "--spawned-at", repr(time.monotonic()), *flags,
    )
    if result["invalid"]:
        raise RunFailed(f"{workload}: " + "; ".join(result["invalid"]))
    return result


def _metric(value: float, unit: str, **extra) -> dict:
    if not math.isfinite(value):
        raise RunFailed(f"metric is not finite: {value!r} {unit}")
    return {"value": value, "unit": unit, **extra}


def _spread(ordered: list[float]) -> float:
    """Inter-quartile distance of sorted values (their range, under four)."""
    if len(ordered) >= 4:
        return quantile(ordered, 0.75) - quantile(ordered, 0.25)
    return ordered[-1] - ordered[0]


def _of_blocks(values: list[float], unit: str, better: str, **extra) -> dict:
    """The better quartile of the blocks, and how far it may be off.

    Whatever else the host is doing only ever adds time, so the blocks
    that were disturbed least say most about the code: a latency is the
    first quartile of its blocks' values and a rate the third.  The
    resolution is the blocks' spread as a share of the value, over the
    root of their number: ``compare`` calls a pairing unresolved when
    this is wider than the metric's bound.
    """
    ordered = sorted(values)
    value = quantile(ordered, 0.25 if better == "lower" else 0.75)
    return _metric(value, unit, resolution=_spread(ordered) / value / math.sqrt(len(ordered)),
                   **extra)


def _of_interpreters(values: list[float], unit: str) -> dict:
    """The median of one value per interpreter (set-up time, peak memory)."""
    ordered = sorted(values)
    middle = statistics.median(ordered)
    return _metric(middle, unit,
                   resolution=_spread(ordered) / middle / math.sqrt(len(ordered)))


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    children = [
        run_child(workload, seed, seconds / INTERPRETERS) for _ in range(INTERPRETERS)
    ]
    problems = [p for child in children for p in child["problems"]]
    problems += [f"limit missed: {m}" for child in children for m in child["limits_missed"]]
    metrics = {}
    for name, unit, better, _ in manifest.END_TO_END:
        if name in ("setup_s", "peak_rss_mb"):
            metrics[name] = _of_interpreters([child[name] for child in children], unit)
            continue
        blocks = [v for child in children for v in child["metrics"][name]["blocks"]]
        metrics[name] = _of_blocks(
            blocks, unit, better, blocks=len(blocks),
            samples=sum(child["metrics"][name]["samples"] for child in children),
        )
    diagnostics = {
        key: statistics.median(child["diagnostics"][key] for child in children)
        for key in children[0]["diagnostics"]
    }
    return {
        "correct": all(child["correct"] for child in children),
        "problems": problems,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "metrics": metrics,
        "diagnostics": diagnostics,
    }


def probe_run(repeats: int) -> dict:
    return spawn("perf.probes", "--repeats", str(repeats), "--out-dir", str(OUT))


def layer_run(workload: str, seed: int, seconds: float, probes: dict) -> dict:
    """The per-layer metrics of one workload: probes, traced run, reference."""
    reference = run_child(workload, seed, seconds * REFERENCE_SHARE)
    traced = run_child(workload, seed, seconds * TRACED_SHARE, "--traced")
    trace = traced["trace"]
    if not trace["closure_ok"]:
        raise RunFailed(
            f"{workload}: the trace does not close: layers + loop are "
            f"{trace['metrics']['trace.closure']:.3f} of the traced operation time"
        )
    if not trace["waits_ok"]:
        raise RunFailed(
            f"{workload}: an item waited {trace['longest_wait_s']:.6f} s in a queue, "
            f"longer than the longest operation ran ({trace['longest_op_s']:.6f} s)"
        )
    values = dict(trace["metrics"])
    values["trace.overhead_ratio"] = (
        (traced["op_seconds"] / traced["ops"]) / (reference["op_seconds"] / reference["ops"])
    )
    values["trace.store.fsyncs_per_kevent"] = traced["diagnostics"].get(
        "fsyncs_per_kevent", 0.0)
    diagnostics = reference["diagnostics"]
    for name in ("a_p99_us", "b_p99_us", "ref_tick_us"):
        values[name] = diagnostics[name]
    values["sched_lag_p95_us"] = diagnostics.get("sched_lag_p95_us", 0.0)
    metrics = {}
    for name, unit, _ in manifest.per_layer():
        if name in probes:
            metrics[name] = _metric(probes[name]["value"], unit,
                                    **{k: v for k, v in probes[name].items()
                                       if k in ("median", "repeats")})
        else:
            metrics[name] = _metric(values[name], unit)
    return {
        "correct": reference["correct"] and traced["correct"],
        "problems": reference["problems"] + traced["problems"],
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "metrics": metrics,
        "missing": trace["missing"],
        "trace_file": str(OUT / f"trace-{workload}.json"),
    }


def machine_facts() -> dict:
    def quiet(*command: str) -> str:
        try:
            return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loop": "asyncio (default selector loop, no uvloop)",
        "filesystem_under_perf_out": quiet("stat", "-f", "-c", "%T", str(OUT)),
        "git_sha": quiet("git", "rev-parse", "HEAD") or "not a git checkout",
        "link": "loopback unix:// inside one process; no real link is crossed",
        "disk": "fsync behaviour is the sandbox's; durable_replay's a_per_s includes it",
    }


def print_result(workload: str, kind: str, result: dict) -> None:
    legs = ", ".join(f"{leg} = {name}" for leg, (name, _)
                     in sorted(manifest.LEGS[workload].items()))
    print(f"-- {workload} [{kind}]  ({legs})")
    for name, metric in result["metrics"].items():
        extra = ""
        if "blocks" in metric:
            extra = f"   blocks={metric['blocks']} samples={metric['samples']}"
        elif "median" in metric:
            extra = f"   median={metric['median']:.6g} repeats={metric['repeats']}"
        print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']:<6}{extra}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"   {'failed_share':<40} {share:>14.6g} {'ratio':<6}   "
          f"failed={result['failed']} attempted={result['attempted']}")
    for name, value in result.get("diagnostics", {}).items():
        print(f"   diag {name:<35} {value:>14.6g}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })


def shape_check(timed: dict, layers: dict) -> list[str]:
    """The paper's Figure 5.1 shape, read from outside."""
    call = timed["metrics"]["a_p50_us"]["value"]
    upcall = timed["metrics"]["b_p50_us"]["value"]
    local = layers["metrics"]["probe.core.port_deliver_us"]["value"]
    checks = [
        ("remote upcall ~ remote call (0.5-2.5x)", 0.5 < upcall / call < 2.5),
        ("remote call > 3x local upcall", call > 3 * local),
        ("remote upcall > 3x local upcall", upcall > 3 * local),
    ]
    return [f"[{'ok' if ok else 'MISS'}] {label}" for label, ok in checks]


def smoke_check(results: dict) -> list[str]:
    """Every promised name is there, finite and carries its unit."""
    wrong = []
    expected = {"timed": {n: u for n, u, _, _ in manifest.END_TO_END},
                "layers": {n: u for n, u, _ in manifest.per_layer()}}
    for workload, by_kind in results["workloads"].items():
        for kind, names in expected.items():
            got = by_kind[kind]["metrics"]
            for name in sorted(set(names) ^ set(got)):
                wrong.append(f"{workload}/{kind}: {name} is "
                             f"{'missing' if name in names else 'not in the manifest'}")
            for name, metric in got.items():
                if name in names and metric["unit"] != names[name]:
                    wrong.append(f"{workload}/{kind}: {name} has unit {metric['unit']!r}, "
                                 f"not {names[name]!r}")
    committed = ROOT / "BENCHMARK.json"
    if committed.exists() and json.loads(committed.read_text()) != manifest.benchmark_json():
        wrong.append("BENCHMARK.json differs from perf/manifest.py "
                     "(regenerate it with --manifest)")
    return wrong


def full_set(seed: int, seconds: float, workloads: list[str], probe_repeats: int) -> dict:
    """Timed and per-layer runs of every workload; prints as it goes."""
    probes = probe_run(probe_repeats)
    results = {"seed": seed, "seconds": seconds, "machine": machine_facts(),
               "claim": None, "workloads": {}}
    for workload in workloads:
        timed = timed_run(workload, seed, seconds)
        print_result(workload, "end to end, tracing off", timed)
        layers = layer_run(workload, seed, seconds, probes)
        print_result(workload, "per layer", layers)
        if workload == "fig51_roundtrip":
            for line in shape_check(timed, layers):
                print(f"   shape {line}")
        results["workloads"][workload] = {"timed": timed, "layers": layers}
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"results written to {path}")
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(manifest.RUN_SECONDS))
    parser.add_argument("--workload", choices=[name for name, _ in manifest.WORKLOADS])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="2 s per workload, probes at 20 repeats; checks every "
                             "named metric is present, finite and carries its unit")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1,
                        help="2: run two full sets (seeds N and N+1000) and "
                             "compare them")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest.benchmark_json(), indent=2))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: {SRC}/repro is not there; the benchmark measures the "
              f"repo it is checked out in", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    seconds = 2.0 if args.smoke else args.seconds
    repeats = SMOKE_PROBE_REPEATS if args.smoke else PROBE_REPEATS
    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            if args.trace == 0:
                result = timed_run(args.workload, args.seed, seconds)
                print_result(args.workload, "end to end, tracing off", result)
            else:
                result = layer_run(args.workload, args.seed, seconds, probe_run(repeats))
                print_result(args.workload, "per layer", result)
            print(final_line(result))
            return 0
        workloads = [args.workload] if args.workload else [n for n, _ in manifest.WORKLOADS]
        sets = [
            full_set(args.seed + 1000 * index, seconds, workloads, repeats)
            for index in range(args.sets)
        ]
    except RunFailed as failure:
        print(f"perf/run.py: {failure}", file=sys.stderr)
        return 1
    status = 0
    for results in sets:
        for workload, by_kind in results["workloads"].items():
            if not (by_kind["timed"]["correct"] and by_kind["layers"]["correct"]):
                print(f"INVALID: {workload} (seed {results['seed']})")
                status = 1
    if args.smoke:
        wrong = smoke_check(sets[0])
        for line in wrong:
            print(f"SMOKE: {line}")
        print(f"smoke: {'failed' if wrong else 'every named metric present with its unit'}")
        status = status or bool(wrong)
    if args.sets == 2:
        status = compare.report(sets[0], sets[1]) or status
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

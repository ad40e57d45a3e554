"""Compare two result files of ``perf/run.py``, pairing by pairing.

    python perf/compare.py A.json B.json

Prints every (end-to-end metric, workload) pair in a row of its own:
both values, the ratio B/A with A as its base, the metric's bound, and

- ``ok``          B is no worse than A by more than the bound;
- ``worse``       it is;
- ``unresolved``  either side's own block-to-block spread, as it bears on
                  its value, is wider than the bound, so neither verdict
                  can be given.

Exits non-zero on any ``worse`` row or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf import manifest  # noqa: E402


def verdict(better: str, bound: float, a: dict, b: dict) -> tuple[str, float]:
    ratio = b["value"] / a["value"] if a["value"] else math.inf
    # "resolution": how far a side's value may be off, as a share of it.
    if max(a.get("resolution", 0.0), b.get("resolution", 0.0)) > bound:
        return "unresolved", ratio
    worse = ratio > 1.0 + bound if better == "lower" else ratio < 1.0 - bound
    return ("worse" if worse else "ok"), ratio


def report(first: dict, second: dict) -> int:
    """Print the comparison of two result sets; returns the exit status."""
    status = 0
    print(f"{'workload':<16} {'metric':<12} {'A':>12} {'B':>12} {'B/A (base A)':>13} "
          f"{'bound':>6}  verdict")
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            print(f"{workload:<16} not in B")
            continue
        a_run = first["workloads"][workload]["timed"]
        b_run = second["workloads"][workload]["timed"]
        for name, _, better, bound in manifest.END_TO_END:
            a, b = a_run["metrics"][name], b_run["metrics"][name]
            word, ratio = verdict(better, bound, a, b)
            if word == "worse":
                status = 1
            print(f"{workload:<16} {name:<12} {a['value']:>12.5g} {b['value']:>12.5g} "
                  f"{ratio:>13.3f} {bound:>6.2f}  {word}")
        a_share = a_run["failed"] / max(1, a_run["attempted"])
        b_share = b_run["failed"] / max(1, b_run["attempted"])
        word = "worse" if b_share > a_share else "ok"
        if word == "worse":
            status = 1
        print(f"{workload:<16} {'failed_share':<12} {a_share:>12.5g} {b_share:>12.5g} "
              f"{'':>13} {0:>6.2f}  {word}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    return report(first, second)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

Usage::

    python3 bench/compare.py A B

``A`` and ``B`` are ``results.json`` files written by ``bench/run.py
--out DIR`` (or the directories holding them); each may hold several
runs per workload.  For every workload and end-to-end metric the median
of B is compared with the median of A:

* ``worse`` / ``better`` -- moved the wrong / right way by more than
  the metric's bound;
* ``within``     -- moved by no more than the bound;
* ``unresolved`` -- the run-to-run spread of either side is wider than
  the bound, so the comparison cannot tell.

The per-layer metrics of traced runs follow as context.  Exit code 1
when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from stats import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> list[dict]:
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)["runs"]


def by_workload(runs: list[dict], trace: int) -> dict[str, dict]:
    """workload -> metric -> every value across the runs."""
    grouped: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        metrics = grouped.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return grouped


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, change)``; ``change`` is B's median over A's, minus 1."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if -worse_by > bound:
        return "better", change
    return "within", change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    a, b = by_workload(runs_a, 0), by_workload(runs_b, 0)
    worse = False
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':<13} " + " ".join(f"{n:>26}" for n in names))
    for workload in sorted(set(a) | set(b)):
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a.get(workload, {}) or \
                    name not in b.get(workload, {}):
                cells.append(f"{'missing':>26}")
                continue
            result, change = verdict(a[workload][name], b[workload][name],
                                     metric["better"], metric["bound"])
            worse |= result == "worse"
            cells.append(f"{result + f' ({change:+.1%})':>26}")
        print(f"{workload:<13} " + " ".join(cells))
    layers_a, layers_b = by_workload(runs_a, 1), by_workload(runs_b, 1)
    for workload in sorted(set(layers_a) & set(layers_b)):
        print(f"\nper-layer, {workload} (median A -> median B):")
        for name, values in layers_a[workload].items():
            if name not in layers_b[workload]:
                continue
            ma = statistics.median(values)
            mb = statistics.median(layers_b[workload][name])
            if ma or mb:
                delta = f"{(mb - ma) / ma:+.1%}" if ma else "new"
                print(f"  {name:<26} {ma:>12.4f} -> {mb:>12.4f}  {delta}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

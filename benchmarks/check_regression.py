"""The performance regression gate: one pass, three sections.

    PYTHONPATH=src python benchmarks/check_regression.py [--root DIR]
                                                         [--update-reports]

(a) **Behavioural.**  The reference workload (benchmarks/telemetry.py)
    runs instrumented with plan=on and with plan=off, whose count
    columns must agree; the plan=on run report is then diffed against
    the committed ``benchmarks/report_baseline.json`` with ``repro
    diff`` strict-count rules.  Count columns (fires, facts derived or
    deleted, iterations) are deterministic and machine-portable, so any
    count delta on an unchanged program fails; time columns only fail
    past a generous threshold.  ``--update-reports`` rewrites that
    baseline instead of diffing.

(b) **Paired ratio predicates.**  Each row of :func:`predicates` times
    two variants of E01 at 1000 edges back to back, ``PAIRS`` pairs in
    this process, alternating which variant runs first (the pairing of
    ``bench/compare.py``); every pair must compute identical instances,
    and the bound is read on the median paired ratio:

    * plan=off / plan=on >= 5.0, the planner's acceptance line (its
      plans go to ``benchmarks/results/plan_reference.json``);
    * bus / sink - 1 <= 5%: events routed through an ``EventBus``
      (attached sink plus one live subscriber, the ``repro tail``
      shape) over the same events into a bare sink.

(c) **Trend.**  ``repro bench report --root DIR`` over every
    ``BENCH_*.json`` under ``--root`` (default: the repo root), serve
    rows included: a series fails when its latest min-time exceeds the
    rolling median of its preceding points by the trend threshold
    *and* the absolute floor (see :mod:`repro.observability.trend`).
    E01 and A01 are gated here: ``pytest
    benchmarks/test_e01_transitive_closure.py
    benchmarks/test_a01_indexing_ablation.py --benchmark-only`` run
    first appends this machine's rows to the committed history.

Exit status: the worst section's code (0 pass, 1 failed check, 2 no
readable report baseline).
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPORT_BASELINE_PATH = HERE / "report_baseline.json"
#: committed report baselines come from other machines: only a massive
#: slowdown on a count-identical run is worth failing on
REPORT_TIME_THRESHOLD = 10.0
REPORT_TIME_FLOOR_MS = 250.0
#: timed pairs per ratio predicate
PAIRS = 10
#: the planner's acceptance line: plan=off / plan=on on E01 at 1000 edges
PLAN_SPEEDUP_TARGET = 5.0
#: bus fan-out may cost at most this fraction over a bare event sink
BUS_OVERHEAD_TARGET = 0.05


def check_reports(baseline_path: pathlib.Path, update: bool) -> int:
    """Section (a): plan=on / plan=off count agreement on the reference
    run, then the fresh report vs the committed one (strict counts)."""
    from benchmarks.telemetry import reference_report
    from repro.engine import EvalConfig
    from repro.observability.diff import diff_reports
    from repro.observability.report import load_report

    def diff(baseline, candidate, baseline_name, candidate_name):
        return diff_reports(
            baseline, candidate, threshold=REPORT_TIME_THRESHOLD,
            min_time_ms=REPORT_TIME_FLOOR_MS, strict_counts=True,
            baseline_name=baseline_name, candidate_name=candidate_name)

    current = reference_report()
    unplanned = reference_report(config=EvalConfig(plan=False))
    plan_diff = diff(unplanned, current, "<reference run, plan=off>",
                     "<reference run, plan=on>")
    if plan_diff.regressions():
        print(plan_diff.render_text())
        print(f"plan=on and plan=off disagree on"
              f" {len(plan_diff.regressions())} count column(s)",
              file=sys.stderr)
        return 1
    print("ok: plan=on and plan=off report identical counts")
    if update:
        current.write(baseline_path)
        print(f"wrote reference run report baseline to {baseline_path}")
        return 0
    try:
        baseline = load_report(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: report baseline {baseline_path}: {exc}"
              " (--update-reports writes one)", file=sys.stderr)
        return 2
    report_diff = diff(baseline, current, str(baseline_path),
                       "<fresh reference run>")
    print(report_diff.render_text())
    if report_diff.regressions():
        print(f"{len(report_diff.regressions())} report regression(s)",
              file=sys.stderr)
        return 1
    print("ok: reference run report matches the baseline")
    return 0


def paired_ratio(numerator, denominator, pairs: int = PAIRS,
                 clock=time.perf_counter) -> tuple[float, list[float]]:
    """``(median, ratios)`` of numerator time / denominator time over
    ``pairs`` back-to-back pairs.

    Both callables run once untimed first (import, allocator and index
    warmup).  Even pairs run the numerator first, odd pairs the
    denominator first: load drift inflates one ordering and deflates
    its mirror, so it lands symmetrically around the true ratio and the
    median is a robust estimate of it, while a real regression moves
    every pair.  Each callable returns what it computed; a pair whose
    two results differ raises :class:`AssertionError`.
    """
    numerator()
    denominator()
    ratios: list[float] = []
    for i in range(pairs):
        order = (numerator, denominator) if i % 2 == 0 \
            else (denominator, numerator)
        seconds, results = [], []
        for variant in order:
            t0 = clock()
            results.append(variant())
            seconds.append(clock() - t0)
        if results[0] != results[1]:
            raise AssertionError(
                f"pair {i}: the two variants computed different"
                " instances")
        num_s, den_s = seconds if i % 2 == 0 else seconds[::-1]
        ratios.append(num_s / den_s if den_s else float("inf"))
    return statistics.median(ratios), ratios


def predicates() -> list[tuple]:
    """Section (b)'s table: ``(label, numerator, denominator, lo, hi)``
    rows over the E01 1000-edge workload; the median paired ratio must
    lie within ``[lo, hi]`` (``None`` = unbounded)."""
    from benchmarks.conftest import run_logres
    from benchmarks.telemetry import (
        _CountingSink,
        _instrumented_run,
        _plan_gate_workload,
    )
    from repro.observability.bus import EventBus

    schema, program, edb = _plan_gate_workload()

    def sink():
        return _instrumented_run(schema, program, edb, _CountingSink())

    def bus():
        event_bus = EventBus()
        event_bus.attach_sink(_CountingSink())
        subscription = event_bus.subscribe(name="gate-tail")
        try:
            return _instrumented_run(schema, program, edb, event_bus)
        finally:
            subscription.close()

    return [
        ("E01[1000] plan=off / plan=on",
         lambda: run_logres(schema, program, edb, plan=False),
         lambda: run_logres(schema, program, edb, plan=True),
         PLAN_SPEEDUP_TARGET, None),
        ("E01[1000] bus / sink", bus, sink,
         None, 1 + BUS_OVERHEAD_TARGET),
    ]


def check_predicates() -> int:
    """Section (b): every ratio predicate over ``PAIRS`` alternating
    pairs, then the plan artifact."""
    from benchmarks.telemetry import write_plan_artifact

    failed = 0
    for label, numerator, denominator, lo, hi in predicates():
        try:
            median, ratios = paired_ratio(numerator, denominator)
        except AssertionError as exc:
            print(f"FAIL  {label}: {exc}", file=sys.stderr)
            failed += 1
            continue
        held = (lo is None or median >= lo) and (hi is None or median <= hi)
        bound = f">= {lo:.2f}" if lo is not None else f"<= {hi:.2f}"
        print(f"{'ok' if held else 'FAIL':<4}  {label}: median"
              f" {median:.3f} over {len(ratios)} alternating pairs"
              f" (bound {bound})")
        print("      pairs: " + " ".join(f"{r:.3f}" for r in ratios))
        failed += not held
    print(f"plan artifact written to {write_plan_artifact()}")
    return 1 if failed else 0


def check_trend(root) -> int:
    """Section (c): ``repro bench report`` over the store at ``root``."""
    from repro.cli import main as repro_main

    root = pathlib.Path(root)
    if not any(root.glob("BENCH_*.json")):
        print(f"note: no BENCH_*.json history under {root};"
              " trend gate vacuously passes")
        return 0
    return repro_main(["bench", "report", "--root", str(root)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=str(HERE.parent),
                        help="directory holding the BENCH_*.json"
                             " history (default: the repo root)")
    parser.add_argument("--update-reports", action="store_true",
                        help="rewrite the run-report baseline from a"
                             " fresh reference run instead of diffing")
    args = parser.parse_args(argv)

    sections = (
        ("behavioural", lambda: check_reports(REPORT_BASELINE_PATH,
                                              args.update_reports)),
        ("predicates", check_predicates),
        ("trend", lambda: check_trend(args.root)),
    )
    outcomes: list[tuple[str, int]] = []
    for name, section in sections:
        print(f"==== {name} ====", flush=True)
        outcomes.append((name, section()))
        print()
    print("gate summary: " + "  ".join(
        f"{name}={'ok' if code == 0 else f'FAIL({code})'}"
        for name, code in outcomes
    ))
    return max(code for _, code in outcomes)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent))
    sys.exit(main())

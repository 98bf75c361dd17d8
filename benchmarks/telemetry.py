"""Benchmark telemetry: ``BENCH_*.json`` rows and the session report.

Two persistent artifacts fall out of every benchmark session
(hooked in ``benchmarks/conftest.py``):

* **per-experiment timing rows** — one JSON line per benchmark appended
  to ``BENCH_<exp>.json`` at the repo root (``<exp>`` is the experiment
  prefix of the benchmark group, e.g. ``e01`` for
  ``e01-transitive-closure``).  Append-only: history accumulates across
  sessions, so the file is a time series of the experiment's numbers on
  this machine, one row per (session, benchmark);
* **the reference run report** — a
  :class:`repro.observability.report.RunReport` of the reference
  workload (transitive closure over the E01 generator), written to
  ``benchmarks/results/run_report.json``.  ``repro diff`` against the
  committed ``benchmarks/report_baseline.json`` is the behavioural
  regression gate (section (a) of ``benchmarks/check_regression.py``):
  count columns are deterministic and machine-portable, so any count
  delta on an unchanged program is a real regression.

Row format (one JSON object per line)::

    {"schema_version": 1, "kind": "bench-row", "ts": <epoch seconds>,
     "session": "<iso date>", "exp": "e01", "group": "e01-transitive-closure",
     "name": "test_logres_seminaive[200]", "min_ms": 1.9, "mean_ms": 2.2,
     "stddev_ms": 0.1, "rounds": 5,
     "config": {"kernel": "incremental", "plan": true, ...}}

``config`` is the benchmark's ``extra_info["config"]`` (the active
:class:`~repro.engine.fixpoint.EvalConfig` switches), null for
benchmarks that measure no engine configuration.  Reading and appending
both go through :mod:`repro.observability.trend` — the perf-telemetry
store shared with ``repro bench`` — so ingestion is tolerant (malformed
or future-schema rows are skipped with a warning, never a traceback)
and appending de-duplicates: rows this session already appended for
the same (group, name, config) are superseded instead of stacked, for
*every* experiment — while rows from earlier sessions are history and
accumulate, which is what ``repro bench report`` trends over.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.observability.events import payload_header
from repro.observability.trend import append_bench_rows, read_bench_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = pathlib.Path(__file__).resolve().parent / "results"
REPORT_PATH = RESULTS / "run_report.json"
PLAN_ARTIFACT_PATH = RESULTS / "plan_reference.json"

#: reference workload: the E01 transitive-closure program over the
#: deterministic edge generator — small enough to run on every session,
#: recursive enough to exercise every count column
REFERENCE_NODES = 100
REFERENCE_EDGES = 200
REFERENCE_SEED = 1

#: the planner gate workload: E01 at 1000 edges (the ISSUE 6 acceptance
#: size), same generator and seed as ``test_logres_plan_on/off[1000]``
PLAN_GATE_EDGES = 1000
PLAN_GATE_SEED = 1


def experiment_id(group: str | None) -> str:
    """``e01-transitive-closure`` -> ``e01`` (rows file name key)."""
    return (group or "ungrouped").split("-", 1)[0]


def bench_path(exp: str) -> pathlib.Path:
    return ROOT / f"BENCH_{exp}.json"


def bench_row(meta, session_stamp: str) -> dict:
    """One appendable row for a pytest-benchmark ``Metadata``."""
    stats = meta.stats
    extra = getattr(meta, "extra_info", None) or {}
    row = payload_header("bench-row")
    row.update({
        "ts": time.time(),
        "session": session_stamp,
        "exp": experiment_id(meta.group),
        "group": meta.group or "ungrouped",
        "name": meta.name,
        "min_ms": stats.min * 1000,
        "mean_ms": stats.mean * 1000,
        "stddev_ms": stats.stddev * 1000,
        "rounds": stats.rounds,
        "config": extra.get("config"),
    })
    return row


#: one session stamp per process: repeated suite runs within one pytest
#: session re-append under the same stamp, which the deduplicating
#: append supersedes instead of stacking
SESSION_STAMP = time.strftime("%Y-%m-%dT%H:%M:%S")


def append_rows(benchmarks) -> list[pathlib.Path]:
    """Append one row per benchmark to its experiment's ``BENCH_*.json``
    at the repo root; returns the touched paths.

    The deduplicating append of :mod:`repro.observability.trend`:
    same-session re-measurements supersede, other sessions' rows
    accumulate as trend history."""
    session_stamp = SESSION_STAMP
    by_exp: dict[str, list[dict]] = {}
    for meta in benchmarks:
        if meta.has_error or meta.stats is None:
            continue
        row = bench_row(meta, session_stamp)
        by_exp.setdefault(row["exp"], []).append(row)
    touched = []
    for exp, rows in sorted(by_exp.items()):
        touched.append(append_bench_rows(bench_path(exp), rows))
    return touched


def read_rows(path: pathlib.Path) -> list[dict]:
    """All ingestible rows of one ``BENCH_*.json`` time series; skipped
    lines are warned about on stderr instead of raising."""
    rows, warnings = read_bench_rows(path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return rows


def reference_report(config=None):
    """Run the reference workload under full instrumentation."""
    from benchmarks.conftest import TC_SOURCE, build_unit
    from repro.observability.report import report_program
    from repro.workloads import random_edges

    schema, program = build_unit(TC_SOURCE)
    edb = random_edges(REFERENCE_NODES, REFERENCE_EDGES,
                       seed=REFERENCE_SEED)
    return report_program(
        schema, program, edb, config=config,
        source_file="benchmarks/reference:e01-transitive-closure",
    )


def _plan_gate_workload():
    from benchmarks.conftest import TC_SOURCE, build_unit
    from repro.workloads import random_edges

    schema, program = build_unit(TC_SOURCE)
    edb = random_edges(PLAN_GATE_EDGES // 2, PLAN_GATE_EDGES,
                       seed=PLAN_GATE_SEED)
    return schema, program, edb


class _CountingSink:
    """The cheapest possible event sink: counts emits, keeps nothing.

    Both sides of the bus / sink predicate write their events
    *somewhere*; using the same trivial sink on both sides makes the
    measured delta pure bus fan-out (lock, ring, subscriber queues),
    not serialization.
    """

    def __init__(self):
        self.events = 0

    def emit(self, event) -> None:
        self.events += 1

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def _instrumented_run(schema, program, edb, sink):
    from repro import Engine, EvalConfig, Semantics
    from repro.observability.instrument import Instrumentation

    obs = Instrumentation(sink=sink)
    engine = Engine(schema, program, EvalConfig(),
                    instrumentation=obs)
    instance = engine.run(edb, Semantics.INFLATIONARY)
    obs.close()
    return instance


def bus_throughput(events: int = 50_000) -> float:
    """Events per second through a bus with one attached sink and one
    live subscriber — the BENCH row for raw bus fan-out."""
    import time as _time

    from repro.observability.bus import EventBus
    from repro.observability.events import Heartbeat

    bus = EventBus()
    bus.attach_sink(_CountingSink())
    sub = bus.subscribe(name="throughput")
    payload = [
        Heartbeat(iteration=i, stratum=None, facts=i, inventions=0,
                  elapsed=0.0)
        for i in range(events)
    ]
    t0 = _time.perf_counter()
    for event in payload:
        bus.emit(event)
    elapsed = _time.perf_counter() - t0
    sub.close()
    bus.close()
    return events / elapsed if elapsed else float("inf")


def write_plan_artifact(path=PLAN_ARTIFACT_PATH) -> pathlib.Path:
    """The planner's chosen orders for the gate workload, as the JSON
    ``repro plan`` would print (uploaded as a CI artifact)."""
    from repro import Engine, EvalConfig

    schema, program, edb = _plan_gate_workload()
    engine = Engine(schema, program, EvalConfig())
    plans = engine.explain_plan(edb)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": 1,
        "kind": "plan-artifact",
        "workload": f"e01-transitive-closure[{PLAN_GATE_EDGES}]",
        "plans": [p.to_dict() for p in plans],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def write_reference_report(path=REPORT_PATH):
    report = reference_report()
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    report.write(path)
    return path

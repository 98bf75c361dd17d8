"""The ``repro serve`` load benchmark: BENCH_serve.json trend rows.

Per workload family: seed a served database at the smoke scale, start a
real server (real sockets, real admission control), drive N client
threads x M mixed read/write requests through
:mod:`repro.server.loadgen`, and append one trend row through the
perf-telemetry store.  ``min_ms`` — the metric every trend tool gates
on — is the **p95 request latency** (the SLO number for a server;
documented in ``docs/SERVE.md``); p50/p99 and the read/write split ride
along in the row.

A second, deliberately under-provisioned server (max-concurrent 1,
queue-depth 1) then takes a burst of concurrent requests to demonstrate
the overload contract: at least one request is shed with
429 + ``Retry-After``, every admitted request completes, and nothing
hangs, on every run.  The trend section of ``check_regression.py``
gates the committed p95 history with every other ``BENCH_*.json``
series.

Usage::

    PYTHONPATH=src python benchmarks/serve_load.py \
        [--families reach kg] [--clients 4] [--requests 25] [--root .]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from telemetry import ROOT, SESSION_STAMP, bench_path  # noqa: E402

from repro.observability.events import payload_header  # noqa: E402
from repro.observability.trend import append_bench_rows  # noqa: E402
from repro.server import ReproServer, ServerConfig  # noqa: E402
from repro.server.loadgen import (  # noqa: E402
    LoadSpec,
    post_json,
    run_load,
    seed_database,
)

#: the benchmark scale: small enough for CI, recursive enough to load
#: the engine on every read
SMOKE_SCALE = 400


def start_server(data_dir: str, **overrides) -> tuple[ReproServer, str]:
    config = ServerConfig(port=0, data_dir=data_dir, **overrides)
    server = ReproServer(config)
    host, port = server.start()
    thread = threading.Thread(
        target=server.serve_forever, daemon=True, name="serve-load"
    )
    thread.start()
    return server, f"http://{host}:{port}"


def bench_family(family: str, clients: int, requests: int,
                 write_ratio: float, seed: int) -> dict:
    """One measured load run; returns the appendable bench row."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as data_dir:
        seed_database(data_dir, "bench", family, SMOKE_SCALE, seed)
        server, base = start_server(data_dir, snapshot_interval=8)
        try:
            spec = LoadSpec(family=family, clients=clients,
                            requests=requests, write_ratio=write_ratio)
            report = run_load(base, "bench", spec)
        finally:
            server.close()
    stats = report.to_dict()
    failures = {
        code: n for code, n in report.statuses.items()
        if code not in (200, 201)
    }
    if failures or report.transport_errors:
        raise SystemExit(
            f"serve-load[{family}]: unexpected outcomes {failures},"
            f" {report.transport_errors} transport error(s)"
        )
    return {
        **payload_header("bench-row"),
        "ts": time.time(),
        "session": SESSION_STAMP,
        "exp": "serve",
        "group": "serve-load",
        "name": f"{family}[c{clients}x{requests}]",
        # the trend-gated metric: p95 request latency over the mix
        "min_ms": stats["p95_ms"],
        "mean_ms": (sum(report.latencies_ms) / len(report.latencies_ms)
                    if report.latencies_ms else 0.0),
        "stddev_ms": 0.0,
        "rounds": report.total,
        "config": {
            "family": family,
            "clients": clients,
            "requests": requests,
            "write_ratio": write_ratio,
            "scale": SMOKE_SCALE,
            "metric": "p95_request_latency",
        },
        "serve": stats,
    }


def overload_scenario(family: str, seed: int) -> dict:
    """The overload acceptance check on an under-provisioned server:
    sheds must be 429 + Retry-After, admitted work must complete."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as data_dir:
        seed_database(data_dir, "bench", family, SMOKE_SCALE, seed)
        server, base = start_server(
            data_dir, max_concurrent=1, queue_depth=1,
            queue_timeout=0.2, retry_after=2.0,
        )
        try:
            spec = LoadSpec(family=family, clients=8, requests=4,
                            write_ratio=0.0, timeout=60.0)
            report = run_load(base, "bench", spec)
        finally:
            server.close()
    shed = report.statuses.get(429, 0)
    ok = report.statuses.get(200, 0)
    other = {
        code: n for code, n in report.statuses.items()
        if code not in (200, 429)
    }
    problems = []
    if shed == 0:
        problems.append("overload never shed a request (expected 429s)")
    if ok == 0:
        problems.append("no admitted request completed under overload")
    if report.retry_after_seen < shed:
        problems.append(
            f"{shed} shed responses but only"
            f" {report.retry_after_seen} Retry-After headers"
        )
    if other:
        problems.append(f"unexpected statuses under overload: {other}")
    if report.transport_errors:
        problems.append(
            f"{report.transport_errors} hung/failed connection(s)"
            " (every request must get a response)"
        )
    if problems:
        raise SystemExit("serve-load overload: " + "; ".join(problems))
    return {"shed": shed, "completed": ok,
            "retry_after_seen": report.retry_after_seen}


def smoke_requests(base: str) -> None:
    """One of each read op against a live server (used by --probe)."""
    for op, body in (("run", {}), ("check", {}), ("plan", {})):
        status, payload, _ = post_json(base, f"/v1/db/bench/{op}", body)
        if status not in (200, 409):
            raise SystemExit(f"probe {op}: unexpected {status} {payload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--families", nargs="+", default=["reach", "kg"])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=25)
    parser.add_argument("--write-ratio", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", default=str(ROOT),
                        help="directory of BENCH_serve.json (default:"
                             " repo root)")
    parser.add_argument("--skip-overload", action="store_true")
    args = parser.parse_args(argv)

    rows = []
    for family in args.families:
        row = bench_family(family, args.clients, args.requests,
                           args.write_ratio, args.seed)
        rows.append(row)
        print(f"serve-load[{family}]: p50={row['serve']['p50_ms']}ms"
              f" p95={row['serve']['p95_ms']}ms"
              f" p99={row['serve']['p99_ms']}ms"
              f" throughput={row['serve']['throughput_rps']}rps",
              file=sys.stderr)
    if not args.skip_overload:
        outcome = overload_scenario(args.families[0], args.seed)
        print(f"serve-load overload: {outcome['shed']} shed (429 +"
              f" Retry-After), {outcome['completed']} completed",
              file=sys.stderr)
    root = pathlib.Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / bench_path("serve").name
    append_bench_rows(path, rows)
    print(f"serve-load: appended {len(rows)} row(s) to {path}",
          file=sys.stderr)
    print(json.dumps([r["serve"] for r in rows], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

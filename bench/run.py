"""The repository's benchmark: ``repro run`` and ``repro serve`` end to end.

Four workloads (see ``bench/README.md`` for why each was chosen):

* ``run-reach``    -- ``repro run`` of reachability over 1000 edges;
* ``run-kg-strat`` -- ``repro run --semantics stratified`` of the
  knowledge graph with a goal;
* ``serve-read``   -- goal reads against ``repro serve`` (rbac[400]);
* ``serve-write``  -- 3 writes to 1 read against the same server.

Usage, from the root of a checkout::

    python3 bench/run.py --workload serve-read --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --seed 0 --out DIR      # all four, untraced + traced

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics.  Every output is checked; the last line of stdout
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 1 when any output was wrong, 2 when the
program to measure is missing.  The checkout's ``src`` is put first on
the path, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: the ``run_seconds`` of BENCHMARK.json
DEFAULT_SECONDS = 20
#: fresh interpreter imports timed for a run-* workload's ``setup_s``
IMPORT_SETUPS = 7
#: server spawns timed for a serve-* workload's ``setup_s``
SERVER_SETUPS = 3
#: committed writes in the seeded server's WAL (below the snapshot
#: interval of 16, so they replay at every start)
WAL_RECORDS = 12
#: share of a serve-* run spent measuring latency with one client; the
#: rest measures capacity with two
LATENCY_SHARE = 0.5
#: seconds one ``repro run`` may take before the benchmark gives up
RUN_TIMEOUT = 60

END_TO_END = {"setup_s": "s", "p50_ms": "ms", "capacity_rps": "op/s",
              "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "serve"
    family: str
    size: int
    smoke_size: int
    writes: bool = False  # serve-*: three writes to every read


WORKLOADS = {w.name: w for w in (
    Workload("run-reach", "run", "reach", 1000, 300),
    Workload("run-kg-strat", "run", "kg", 3000, 300),
    Workload("serve-read", "serve", "rbac", 400, 100),
    Workload("serve-write", "serve", "rbac", 400, 100, writes=True),
)}


class Outcome:
    """What one run measured and checked."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.context: dict = {}
        self.warnings: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ---------------------------------------------------------------------------
# run-*: fork server around repro.cli.main
# ---------------------------------------------------------------------------
class ForkWorker:
    """``bench/forkworker.py`` as a subprocess; one ``run`` per fork.

    The worker leads its own process group, so a run that hangs past
    :data:`RUN_TIMEOUT` is killed together with its forked child."""

    def __init__(self, spans: str | None = None):
        argv = [sys.executable, os.path.join(BENCH, "forkworker.py")]
        if spans:
            argv += ["--spans", spans]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=_env(), cwd=ROOT,
                                     start_new_session=True)
        try:
            self.wrapped = json.loads(self._reply())["wrapped"]
        except BaseException:
            self.close()
            raise

    def _reply(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], RUN_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("fork worker exited or timed out")
        return line

    def run(self, argv: list[str], stdout: str, stderr: str,
            op: str) -> dict:
        self.proc.stdin.write(json.dumps({
            "argv": argv, "stdout": stdout, "stderr": stderr, "op": op,
        }) + "\n")
        self.proc.stdin.flush()
        return json.loads(self._reply())

    def close(self) -> None:
        self.proc.stdin.close()
        try:  # an idle worker exits at once on end of input
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def _fingerprint(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        lines = sorted(f.read().splitlines())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _reference_fingerprint(argv: list[str], workdir: str) -> str:
    out = os.path.join(workdir, "reference.out")
    with open(out, "w", encoding="utf-8") as f:
        subprocess.run([sys.executable, "-m", "repro", *argv, "--reference"],
                       stdout=f, stderr=subprocess.DEVNULL, check=True,
                       env=_env(), cwd=ROOT, timeout=120)
    return _fingerprint(out)


def _import_setups() -> list[float]:
    """Seconds of a fresh ``python -c "import repro.cli"``; one untimed
    import first writes the bytecode caches."""
    argv = [sys.executable, "-c", "import repro.cli"]
    samples = []
    for _ in range(IMPORT_SETUPS + 1):
        began = time.perf_counter()
        # a blocking wait: with a timeout, Popen.wait polls in steps of
        # up to 50 ms, which would quantize the measurement
        code = subprocess.Popen(argv, env=_env(), cwd=ROOT).wait()
        samples.append(time.perf_counter() - began)
        if code != 0:
            raise RuntimeError(f"import repro.cli exited {code}")
    return samples[1:]


def _timed_run(worker: ForkWorker, argv, workdir, expected, op, outcome):
    out = os.path.join(workdir, "run.out")
    err = os.path.join(workdir, "run.err")
    result = worker.run(argv, out, err, op)
    outcome.attempted += 1
    if result["code"] != 0:
        with open(err, encoding="utf-8") as f:
            outcome.fail(f"repro run exited {result['code']}: "
                         + f.read()[-500:])
    elif _fingerprint(out) != expected:
        outcome.fail("repro run output differs from the reference kernel")
    return result


def run_batch(work: Workload, size: int, seed: int, seconds: float,
              trace: bool, workdir: str, outcome: Outcome) -> None:
    from inputs import write_run_inputs

    argv = write_run_inputs(workdir, work.family, size, seed)
    expected = _reference_fingerprint(argv, workdir)
    spans = os.path.join(workdir, "spans.jsonl")
    plain = traced = None
    try:
        if not trace:
            setups = _import_setups()
            outcome.context["setup_samples_s"] = setups
        plain = ForkWorker()
        if plain.wrapped:
            raise RuntimeError("the untraced worker has span wrappers")
        workers = [plain]
        if trace:
            traced = ForkWorker(spans)
            if not traced.wrapped:
                raise RuntimeError("the traced worker has no wrappers")
            workers.append(traced)
        for worker in workers:  # untimed warm-up: page cache, first check
            _timed_run(worker, argv, workdir, expected, "w", outcome)
        if os.path.exists(spans):
            os.unlink(spans)
        latencies: dict[int, list[float]] = {0: [], 1: []}
        rss = []
        deadline = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < deadline:
            which = n % len(workers)
            result = _timed_run(workers[which], argv, workdir, expected,
                                f"r{n}-", outcome)
            latencies[which].append(result["ms"])
            rss.append(result["rss_kb"])
            n += 1
    finally:
        for worker in (plain, traced):
            if worker is not None:
                worker.close()
    if not trace:
        ms = latencies[0]
        outcome.metrics.update({
            "setup_s": statistics.median(setups),
            "p50_ms": _median(ms),
            # one caller running jobs back to back
            "capacity_rps": 1000.0 / _median(ms),
            "peak_rss_mb": max(rss, default=0) / 1024.0,
        })
        outcome.context["samples"] = {"p50_ms": len(ms)}
        return
    from tracing import load_spans, summarize

    summary = summarize(load_spans(spans), ("run",), latencies[1])
    _layer_metrics(outcome, summary, latencies[1], latencies[0])
    outcome.context["spans_file"] = spans


# ---------------------------------------------------------------------------
# serve-*: a real `repro serve` subprocess
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process over a copy of the seeded data dir."""

    def __init__(self, seed_dir: str, workdir: str, tag: str,
                 spans: str | None = None):
        data_dir = os.path.join(workdir, f"data-{tag}")
        shutil.copytree(seed_dir, data_dir)
        ready = os.path.join(workdir, f"ready-{tag}")
        serve_args = ["--port", "0", "--data-dir", data_dir,
                      "--ready-file", ready, "--quiet"]
        if spans:
            argv = [sys.executable, os.path.join(BENCH, "traced_serve.py"),
                    spans, *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        began = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=_env(), cwd=ROOT)
        try:
            while True:
                if os.path.exists(ready):
                    with open(ready, encoding="utf-8") as f:
                        text = f.read()
                    if text.endswith("\n"):
                        break
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited {self.proc.returncode}"
                        " before it was ready")
                if time.perf_counter() - began > 120:
                    raise RuntimeError("repro serve never became ready")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - began
        host, port = text.split()
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class ServeInputs:
    """The seeded database, its reference answers and the schedule."""

    def __init__(self, work: Workload, size: int, seed: int,
                 workdir: str):
        import inputs

        self.work = work
        self.rbac = inputs.Rbac(size, seed)
        self.rng = random.Random(seed)
        self.seed_dir = os.path.join(workdir, "seed")
        wal = [inputs.write_module(inputs.write_fact(f"wal{i}", self._role()))
               for i in range(WAL_RECORDS)]
        self.state = inputs.seed_server_dir(self.seed_dir, self.rbac, wal)
        self.grants = inputs.reference_permissions(self.state)
        self.written = 0

    def _role(self) -> str:
        return self.rng.choice(self.rbac.roles)

    def request(self, index: int):
        import inputs
        from client import Request

        if self.work.writes and index % 4 != 3:
            self.written += 1
            fact = inputs.write_fact(f"load{self.written}", self._role())
            return Request("write", "/v1/db/bench/apply",
                           {"module": inputs.write_module(fact),
                            "mode": "RIDV"}, key=fact)
        user = self.rng.choice(self.rbac.users)
        return Request("read", "/v1/db/bench/run",
                       {"goal": inputs.read_goal(user)}, key=user)

    def check(self, request, outcome: Outcome, acked: list[str]) -> None:
        outcome.attempted += 1
        if request.error or request.status != 200:
            outcome.fail(f"{request.kind}: {request.error or request.status}"
                         f" {str(request.payload)[:300]}")
            return
        if request.kind == "write":
            acked.append(request.key)
            return
        got = {a.get("P") for a in request.payload.get("answers", ())}
        if got != self.grants.get(request.key, frozenset()):
            outcome.fail(f"read of {request.key}: answers differ from the"
                         " reference kernel")


def _final_checks(server: Server, inputs: ServeInputs, acked: list[str],
                  outcome: Outcome) -> None:
    """``applied_seq`` counts every acknowledged write, and the served
    instance has the reference kernel's fact count."""
    import http.client

    from inputs import reference_fact_count

    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request("GET", "/v1/db/bench")
        info = json.loads(conn.getresponse().read())
        conn.request("POST", "/v1/db/bench/run", "{}",
                     {"Content-Type": "application/json"})
        served = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    outcome.attempted += 2
    if info.get("applied_seq") != WAL_RECORDS + len(acked):
        outcome.fail(f"applied_seq {info.get('applied_seq')} !="
                     f" {WAL_RECORDS} + {len(acked)} acknowledged writes")
    expected = reference_fact_count(inputs.state, acked)
    if served.get("facts") != expected:
        outcome.fail(f"served instance has {served.get('facts')} facts,"
                     f" the reference kernel {expected}")


def _by_kind(requests, kind: str) -> list[float]:
    return [r.latency_ms for r in requests if r.kind == kind]


def serve_batch(work: Workload, size: int, seed: int, seconds: float,
                trace: bool, workdir: str, outcome: Outcome) -> None:
    from client import closed_loop
    from stats import tail

    inputs = ServeInputs(work, size, seed, workdir)
    primary = "write" if work.writes else "read"
    acked: list[str] = []
    spans = os.path.join(workdir, "spans.jsonl")

    def drive(server: Server, duration: float, clients: int):
        made, elapsed = closed_loop(server.host, server.port,
                                    inputs.request, duration, clients)
        for request in made:
            inputs.check(request, outcome, acked)
        return made, elapsed

    if not trace:
        setups, server = [], None
        try:
            for k in range(SERVER_SETUPS):
                if server is not None:
                    server.stop()
                server = Server(inputs.seed_dir, workdir, str(k))
                setups.append(server.setup_s)
            timed, _ = drive(server, seconds * LATENCY_SHARE, 1)
            loaded, elapsed = drive(server, seconds * (1 - LATENCY_SHARE), 2)
            _final_checks(server, inputs, acked, outcome)
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        ms = _by_kind(timed, primary)
        outcome.metrics.update({
            "setup_s": statistics.median(setups),
            "p50_ms": _median(ms),
            "capacity_rps": len(loaded) / elapsed,
            "peak_rss_mb": rss,
        })
        outcome.context.update({
            "setup_samples_s": setups,
            "samples": {"p50_ms": len(ms), "capacity_rps": len(loaded)},
            "one_client": {
                kind: {"p50_ms": _median(_by_kind(timed, kind)),
                       "p90_ms": tail(_by_kind(timed, kind), 90)}
                for kind in ("read", "write") if _by_kind(timed, kind)},
        })
        return

    half = seconds / 2
    server = Server(inputs.seed_dir, workdir, "plain")
    try:
        untraced, _ = drive(server, half, 1)
    finally:
        server.stop()
    acked.clear()  # the traced server starts again from the seed
    server = Server(inputs.seed_dir, workdir, "traced", spans=spans)
    try:
        traced, _ = drive(server, half, 1)
        _final_checks(server, inputs, acked, outcome)
    finally:
        server.stop()
    from tracing import load_spans, summarize

    span_list = load_spans(spans)
    summary = summarize(span_list, ("read", "write"),
                        [r.latency_ms for r in traced])
    _layer_metrics(outcome, summary, _by_kind(traced, primary),
                   _by_kind(untraced, primary))
    outcome.context["by_kind"] = {
        kind: summarize(span_list, (kind,), _by_kind(traced, kind))
        for kind in ("read", "write") if _by_kind(traced, kind)}
    outcome.context["spans_file"] = spans


def _layer_metrics(outcome: Outcome, summary: dict, traced_ms,
                   plain_ms) -> None:
    metrics = summary["metrics"]
    metrics["trace.overhead_ratio"] = (
        _median(traced_ms) / _median(plain_ms) if plain_ms else 0.0)
    outcome.metrics.update(metrics)
    outcome.context.update({
        "ops_traced": summary["ops"],
        "ops_client": summary["client_ops"],
        "identity_error": summary["identity_error"],
        "samples": {"traced": len(traced_ms), "untraced": len(plain_ms)},
    })
    if summary["ops"] != summary["client_ops"]:
        outcome.warnings.append(
            f"{summary['ops']} traced operations for"
            f" {summary['client_ops']} client operations")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # a plain checkout: no history to name
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_workload(work: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: str | None) -> dict:
    from tracing import LAYER_METRICS

    outcome = Outcome()
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        outcome.warnings.append(
            f"1-minute load average {load:.2f} exceeds nproc at start")
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{work.name}-{os.getpid()}-{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    size = work.smoke_size if smoke else work.size
    batch = run_batch if work.kind == "run" else serve_batch
    began = time.perf_counter()
    try:
        batch(work, size, seed, seconds, trace, workdir, outcome)
        spans = outcome.context.pop("spans_file", None)
        if spans and out_dir:
            os.makedirs(out_dir, exist_ok=True)
            shutil.copy(spans, os.path.join(out_dir,
                                            f"spans-{work.name}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = LAYER_METRICS if trace else END_TO_END
    return {
        "workload": work.name,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "seconds": seconds,
        "phases": ({"one_client_s": seconds * LATENCY_SHARE,
                    "two_clients_s": seconds * (1 - LATENCY_SHARE)}
                   if work.kind == "serve" and not trace
                   else {"measured_s": seconds}),
        "wall_s": time.perf_counter() - began,
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "errors": outcome.errors,
        "valid": not outcome.warnings,
        "warnings": outcome.warnings,
        "metrics": {name: {"value": outcome.metrics.get(name, 0.0),
                           "unit": unit} for name, unit in units.items()},
        "context": outcome.context,
    }


def _print_run(run: dict) -> None:
    for name, metric in run["metrics"].items():
        print(f"{run['workload']:<13} {name:<26} {metric['value']:>14.4f}"
              f" {metric['unit']}")
    for warning in run["warnings"]:
        print(f"warning: {run['workload']}: {warning}", file=sys.stderr)
    for error in run["errors"]:
        print(f"error: {run['workload']}: {error}", file=sys.stderr)


def _save(out_dir: str, runs: list[dict]) -> None:
    """Append ``runs`` to ``out_dir/results.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.json")
    saved = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            saved = json.load(f)
    saved["runs"].extend(runs)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(saved, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four, untraced"
                             " then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run"
                             f" (default: {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics"
                             " (default with --workload: 0)")
    parser.add_argument("--out", help="directory for results.json and"
                                      " the span files")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    else:
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        plan = [(w, t) for t in traces for w in WORKLOADS.values()]
    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "loadavg_1m": os.getloadavg()[0],
    }
    runs = []
    for work, trace in plan:
        run = run_workload(work, args.seed, args.seconds, trace, args.smoke,
                           args.out)
        run["env"] = env
        _print_run(run)
        runs.append(run)
    if args.out:
        _save(args.out, runs)
    correct = all(r["correct"] for r in runs)
    last = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": runs[-1]["metrics"] if len(runs) == 1 else {
            f"{r['workload']}.{name}": metric for r in runs
            for name, metric in r["metrics"].items()},
    }
    print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

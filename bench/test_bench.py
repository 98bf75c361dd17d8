"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import stats
import tracing
from compare import verdict
from run import BENCH, ROOT, SRC, ForkWorker

ENV = {**os.environ, "PYTHONPATH": SRC}


def _run(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          env=ENV, capture_output=True, text=True,
                          timeout=timeout)


def test_smoke_pass_of_all_four_workloads(tmp_path):
    done = _run("--smoke", "--seconds", "2", "--seed", "3",
                "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    with open(tmp_path / "results.json", encoding="utf-8") as f:
        runs = json.load(f)["runs"]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in ("run-reach", "run-kg-strat", "serve-read",
                         "serve-write") for t in (0, 1))
    for run in runs:
        assert run["correct"], run["errors"]
        if run["trace"]:
            context = run["context"]
            assert context["ops_traced"] == context["ops_client"] > 0
            assert context["identity_error"] < 0.05
            assert (tmp_path / f"spans-{run['workload']}.jsonl").exists()
        else:
            assert all(m["value"] > 0 for m in run["metrics"].values())


def test_one_workload_prints_the_result_line():
    done = _run("--workload", "serve-read", "--seed", "1", "--seconds",
                "2", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == {"setup_s", "p50_ms", "capacity_rps",
                                    "peak_rss_mb"}
    assert last["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "run-reach", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


def _span(span_id, name, start, end, parent=None, op="1"):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "thread": 1}


def test_self_times_sum_to_the_root_span():
    spans = [
        _span(1, "cli.main", 0, 100),
        _span(2, "storage.load", 5, 25, parent=1),
        _span(3, "fixpoint.run", 30, 90, parent=1),
        _span(4, "planner.plan", 31, 36, parent=3),
        _span(5, "storage.copy", 36, 40, parent=3),
        _span(6, "compile.compile", 40, 41, parent=3),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 20, 2: 20, 3: 50, 4: 5, 5: 4, 6: 1}
    assert sum(own.values()) == 100
    summary = tracing.summarize(spans, ("run",), [100 / 1e6 + 0.5])
    assert summary["metrics"]["fixpoint.eval_ms"] == pytest.approx(50e-6)
    assert summary["metrics"]["http.transport_ms"] == pytest.approx(0.5)
    assert summary["identity_error"] == pytest.approx(0.0, abs=1e-9)


def test_operations_are_classified_by_their_spans():
    read = [_span(1, "http.request", 0, 10),
            _span(2, "goals.answer", 1, 2, parent=1)]
    write = [_span(3, "http.request", 0, 10, op="3"),
             _span(4, "modules.apply", 1, 2, parent=3, op="3")]
    assert tracing.op_kind(read) == "read"
    assert tracing.op_kind(write) == "write"
    assert tracing.op_kind([_span(5, "http.request", 0, 1)]) == "other"


def test_percentile_rule():
    assert stats.supported(100, 90) and not stats.supported(99, 90)
    assert stats.supported(200, 95) and not stats.supported(199, 95)
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == pytest.approx(50.5)
    assert stats.tail(samples, 90) == {
        "value": pytest.approx(90.1), "n": 100, "flagged": False}
    assert stats.tail(samples[:50], 90)["flagged"]


def test_compare_verdicts():
    assert verdict([100] * 4, [105] * 4, "lower", 0.1)[0] == "within"
    assert verdict([100] * 4, [120] * 4, "lower", 0.1)[0] == "worse"
    assert verdict([100] * 4, [120] * 4, "higher", 0.1)[0] == "better"
    assert verdict([80, 100, 100, 120], [100] * 4, "lower",
                   0.1)[0] == "unresolved"


def _bindings():
    return {(module.__name__, key): value
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("repro")
            for key, value in list(vars(module).items())
            if callable(value)}


def test_wrappers_cover_every_binding_and_are_restored():
    import repro.cli  # noqa: F401
    import repro.server.http  # noqa: F401

    before = _bindings()
    assert tracing.wrapped_bindings() == []
    tracer = tracing.install()
    try:
        wrapped = tracing.wrapped_bindings()
        assert "repro.cli.main" in wrapped
        # a `from ... import parse_source` binding is replaced too
        assert "repro.server.http.parse_source" in wrapped
        assert "repro.storage.factset.FactSet" in wrapped
    finally:
        tracer.uninstall()
    assert tracing.wrapped_bindings() == []
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_lazily_imported_modules_are_wrapped_on_import():
    script = (
        "import sys, tracing, repro.cli\n"
        "assert 'repro.engine.compile' not in sys.modules\n"
        "tracer = tracing.install()\n"
        "import repro.engine.compile as c\n"
        "assert hasattr(c.compile_rule, tracing.MARKER)\n"
        "tracer.uninstall()\n"
        "assert not hasattr(c.compile_rule, tracing.MARKER)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=BENCH,
                          env={**ENV, "PYTHONPATH": f"{SRC}:{BENCH}"},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_untraced_worker_has_no_wrappers(tmp_path):
    plain = ForkWorker()
    traced = ForkWorker(str(tmp_path / "spans.jsonl"))
    try:
        assert plain.wrapped == 0
        assert traced.wrapped > 0
    finally:
        plain.close()
        traced.close()

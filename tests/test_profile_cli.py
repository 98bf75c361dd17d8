"""Tests for ``repro profile`` and the run command's observability flags.

Pins the acceptance invariant of the profiling subsystem: the per-rule
``fires`` column sums to the tracer's derivation count (every fire event
is one derivation record).
"""

import json

import pytest

from repro.cli import main
from repro.engine.trace import Tracer
from repro.language.ast import Program
from repro.language.parser import parse_source
from repro.observability import read_jsonl
from repro.observability.profile import profile_program
from repro.storage.factset import FactSet

TC_SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  parent(par "a", chil "b").
  parent(par "b", chil "c").
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""


@pytest.fixture
def tc_file(tmp_path):
    path = tmp_path / "tc.logres"
    path.write_text(TC_SOURCE)
    return str(path)


class TestProfileProgram:
    def test_fires_sum_to_tracer_derivations(self):
        unit = parse_source(TC_SOURCE)
        tracer = Tracer()
        _, profile, _ = profile_program(
            unit.schema(), Program(tuple(unit.rules)), FactSet(),
            sink=tracer,
        )
        fires = sum(row.fires for row in profile.rules)
        assert fires == len(tracer.derivations) == 5

    def test_profile_is_ranked_and_complete(self):
        unit = parse_source(TC_SOURCE)
        _, profile, _ = profile_program(
            unit.schema(), Program(tuple(unit.rules)), FactSet(),
        )
        assert len(profile.rules) == 4  # every rule gets a row
        times = [row.time_cum for row in profile.rules]
        assert times == sorted(times, reverse=True)
        assert profile.facts == 5
        assert profile.iterations >= 2
        assert len(profile.iteration_times) == profile.iterations

    def test_profile_serializes(self):
        unit = parse_source(TC_SOURCE)
        _, profile, _ = profile_program(
            unit.schema(), Program(tuple(unit.rules)), FactSet(),
        )
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["facts"] == 5
        assert {row["index"] for row in payload["rules"]} == {0, 1, 2, 3}
        assert "counters" in payload["metrics"]


class TestProfileCommand:
    def test_text_output(self, tc_file, capsys):
        assert main(["profile", tc_file]) == 0
        out = capsys.readouterr().out
        assert "per-rule (ranked by cumulative time):" in out
        assert "anc(a X, d Z)" in out
        assert "phases:" in out

    def test_json_output_schema(self, tc_file, capsys):
        assert main(["profile", tc_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("file", "total_ms", "iterations", "facts", "rules",
                    "strata", "iteration_times_ms", "phases", "metrics"):
            assert key in payload
        assert payload["file"] == tc_file
        assert sum(r["fires"] for r in payload["rules"]) == 5

    def test_trace_out(self, tc_file, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main(["profile", tc_file, "--trace-out", str(out)]) == 0
        with out.open() as f:
            events = read_jsonl(f)
        assert sum(1 for e in events if e.kind == "rule-fire") == 5

    def test_missing_file(self, capsys):
        assert main(["profile", "/nonexistent.logres"]) == 2


class TestRunObservabilityFlags:
    def test_trace_and_metrics_out(self, tc_file, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "run", tc_file,
            "--trace-out", str(events_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        with events_path.open() as f:
            events = read_jsonl(f)
        assert events[0].kind == "stream-header"
        assert events[0].schema_version == 1
        assert events[0].source_file == tc_file
        assert events[1].kind == "run-start"
        assert events[-1].kind == "run-end"
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema_version"] == 1
        assert "metrics" in snapshot and "phases" in snapshot
        assert snapshot["metrics"]["counters"]  # non-empty

    def test_metrics_out_alone(self, tc_file, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "run", tc_file, "--metrics-out", str(metrics_path),
        ]) == 0
        snapshot = json.loads(metrics_path.read_text())
        fires = sum(
            v for k, v in snapshot["metrics"]["counters"].items()
            if k.startswith("rule_fires")
        )
        assert fires == 5

    def test_prom_out_keeps_the_snapshot_shape(self, tc_file, tmp_path,
                                               capsys):
        # --prom-out is only another rendering of the one registry: the
        # --metrics-out snapshot carries the same keys with or without it
        def shape(*extra):
            path = tmp_path / "metrics.json"
            assert main(["run", tc_file, "--metrics-out", str(path),
                         *extra]) == 0
            snapshot = json.loads(path.read_text())
            metrics = snapshot["metrics"]
            return (
                sorted(snapshot),
                {part: sorted(metrics[part]) for part in metrics},
                {key: sorted(entry)
                 for key, entry in metrics["histograms"].items()},
            )

        prom_path = tmp_path / "metrics.prom"
        assert shape() == shape("--prom-out", str(prom_path))
        assert "_bucket{" in prom_path.read_text()

    def test_plain_run_unchanged(self, tc_file, capsys):
        assert main(["run", tc_file]) == 0
        assert "anc (3):" in capsys.readouterr().out

"""``repro bench`` / ``repro bench report``: the matrix CLI surface."""

import json

import pytest

from repro.cli import main
from repro.observability.events import SCHEMA_VERSION
from repro.observability.trend import read_bench_rows

REQUIRED_ROW_FIELDS = (
    "schema_version", "kind", "ts", "session", "exp", "group", "name",
    "min_ms", "mean_ms", "stddev_ms", "rounds", "config", "run_id",
    "facts_in", "facts_out", "derived",
)


def _bench(tmp_path, *argv):
    return main(["bench", "--root", str(tmp_path), "--quiet",
                 "--reps", "1", *argv])


class TestBenchCommand:
    def test_small_sweep_appends_valid_rows(self, tmp_path, capsys):
        assert _bench(tmp_path, "--families", "reach", "rbac",
                      "--scales", "40", "--kernels", "compiled") == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        for family in ("reach", "rbac"):
            rows, warnings = read_bench_rows(
                tmp_path / f"BENCH_{family}.json")
            assert warnings == []
            assert len(rows) == 1
            row = rows[0]
            for field in REQUIRED_ROW_FIELDS:
                assert field in row, field
            assert row["schema_version"] == SCHEMA_VERSION
            assert row["kind"] == "bench-row"
            assert row["name"] == f"{family}[40]"
            assert row["config"]["kernel"] == "compiled"
            assert row["min_ms"] > 0
            assert row["facts_out"] > row["facts_in"]

    def test_matrix_covers_all_kernels(self, tmp_path):
        assert _bench(tmp_path, "--matrix", "--families", "genealogy",
                      "--scales", "30", "50") == 0
        rows, _ = read_bench_rows(tmp_path / "BENCH_genealogy.json")
        kernels = {r["config"]["kernel"] for r in rows}
        assert kernels == {"reference", "incremental", "compiled"}
        assert {r["name"] for r in rows} == \
            {"genealogy[30]", "genealogy[50]"}

    def test_unknown_family_exits_two(self, tmp_path, capsys):
        assert _bench(tmp_path, "--families", "nope") == 2
        assert "unknown workload family" in capsys.readouterr().err

    def test_unknown_scale_exits_two(self, tmp_path, capsys):
        assert _bench(tmp_path, "--families", "reach",
                      "--scales", "huge") == 2
        assert "unknown scale" in capsys.readouterr().err


class TestBenchReport:
    def _history(self, tmp_path, mins, name="reach[40]", exp="reach",
                 config=None):
        config = config or {"kernel": "compiled",
                            "semantics": "inflationary"}
        with open(tmp_path / f"BENCH_{exp}.json", "w") as f:
            for i, ms in enumerate(mins):
                f.write(json.dumps({
                    "schema_version": SCHEMA_VERSION,
                    "kind": "bench-row", "ts": float(i),
                    "session": f"s{i}", "exp": exp,
                    "group": f"bench-{exp}", "name": name,
                    "min_ms": ms, "mean_ms": ms, "stddev_ms": 0.0,
                    "rounds": 1, "config": config,
                }) + "\n")

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        self._history(tmp_path, [10.0, 10.4, 9.9, 10.1])
        assert main(["bench", "report", "--root", str(tmp_path)]) == 0
        assert "no trend regressions" in capsys.readouterr().out

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        self._history(tmp_path, [10.0, 10.4, 9.9, 40.0])
        assert main(["bench", "report", "--root", str(tmp_path)]) == 1
        assert "TREND REGRESSIONS" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        self._history(tmp_path, [10.0, 10.4, 9.9, 40.0])
        assert main(["bench", "report", "--root", str(tmp_path),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "bench-trend"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert len(payload["regressions"]) == 1
        assert payload["regressions"][0]["name"] == "reach[40]"

    def test_prometheus_format(self, tmp_path, capsys):
        self._history(tmp_path, [10.0, 10.4, 9.9, 10.1])
        assert main(["bench", "report", "--root", str(tmp_path),
                     "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_bench_latest_ms" in out
        assert "_bucket" in out

    def test_threshold_flag_loosens_the_gate(self, tmp_path):
        self._history(tmp_path, [10.0, 10.4, 9.9, 40.0])
        assert main(["bench", "report", "--root", str(tmp_path),
                     "--threshold", "5.0"]) == 0

    def test_malformed_history_warns_but_reports(self, tmp_path,
                                                 capsys):
        self._history(tmp_path, [10.0, 10.2])
        with open(tmp_path / "BENCH_reach.json", "a") as f:
            f.write("{broken\n")
        assert main(["bench", "report", "--root", str(tmp_path)]) == 0
        assert "warning:" in capsys.readouterr().out

    def test_empty_history_exits_zero(self, tmp_path, capsys):
        assert main(["bench", "report", "--root", str(tmp_path)]) == 0
        assert "no trend regressions" in capsys.readouterr().out


def _check_trend(root):
    import sys

    sys.path.insert(0, ".")
    try:
        from benchmarks.check_regression import check_trend
    finally:
        sys.path.pop(0)
    return check_trend(root)


class TestBenchGateScript:
    """Section (c) of benchmarks/check_regression.py: the trend pass."""

    def test_check_regression_bench_gate(self, tmp_path, capsys):
        TestBenchReport._history(
            TestBenchReport(), tmp_path, [10.0, 10.4, 9.9, 10.1])
        assert _check_trend(tmp_path) == 0
        assert "no trend regressions" in capsys.readouterr().out
        TestBenchReport._history(
            TestBenchReport(), tmp_path, [10.0, 10.4, 9.9, 44.0])
        assert _check_trend(tmp_path) == 1
        assert "TREND REGRESSIONS (1)" in capsys.readouterr().out

    def test_slowed_serve_row_fails(self, tmp_path, capsys):
        config = {"clients": 4, "family": "reach", "scale": 400,
                  "metric": "p95_request_latency", "requests": 20,
                  "write_ratio": 0.25}
        TestBenchReport._history(
            TestBenchReport(), tmp_path, [500.0, 470.0, 520.0, 2500.0],
            name="reach[c4x20]", exp="serve", config=config)
        assert _check_trend(tmp_path) == 1
        assert "serve/reach[c4x20]" in capsys.readouterr().out

    def test_gate_on_empty_root_passes(self, tmp_path, capsys):
        assert _check_trend(tmp_path) == 0
        assert "vacuously" in capsys.readouterr().out

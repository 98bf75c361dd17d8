"""Tests for the benchmark report renderer (benchmarks/report.py) and
the paired ratio predicates of benchmarks/check_regression.py."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import pytest  # noqa: E402

from benchmarks.check_regression import paired_ratio  # noqa: E402
from benchmarks.report import render  # noqa: E402


def fake_payload():
    return {
        "machine_info": {"node": "testbox", "python_version": "3.11"},
        "benchmarks": [
            {
                "name": "test_fast[1]",
                "group": "g1",
                "stats": {"mean": 0.002, "min": 0.001, "rounds": 10},
            },
            {
                "name": "test_slow[1]",
                "group": "g1",
                "stats": {"mean": 0.2, "min": 0.1, "rounds": 5},
            },
            {
                "name": "test_other",
                "group": None,
                "stats": {"mean": 0.05, "min": 0.04, "rounds": 7},
            },
        ],
    }


class TestRender:
    def test_renders_group_tables_sorted_by_mean(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(fake_payload()))
        out = render(path)
        assert "## g1" in out
        assert "## ungrouped" in out
        # within a group, faster benchmarks come first
        assert out.index("test_fast[1]") < out.index("test_slow[1]")
        assert "| test_fast[1] | 2.00 | 1.00 | 10 |" in out

    def test_machine_info_in_header(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(fake_payload()))
        assert "testbox" in render(path)

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"benchmarks": []}))
        out = render(path)
        assert "generated by" in out


class FakeClock:
    """A clock that only the timed variants advance."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def variant(clock, log, tag, durations, result="instance"):
    """A timed variant: logs its tag, advances the clock by its next
    scripted duration (the warmup call takes 0) and returns ``result``."""
    script = iter([0.0, *durations])

    def run():
        log.append(tag)
        clock.now += next(script)
        return result

    return run


class TestCheckRegression:
    """paired_ratio: the measurement behind every ratio predicate."""

    def test_order_alternates_pair_to_pair(self):
        clock, log = FakeClock(), []
        num = variant(clock, log, "n", [2.0] * 4)
        den = variant(clock, log, "d", [1.0] * 4)
        paired_ratio(num, den, pairs=4, clock=clock)
        assert log[:2] == ["n", "d"]  # untimed warmup
        assert log[2:] == ["n", "d", "d", "n", "n", "d", "d", "n"]

    def test_median_over_pairs(self):
        clock, log = FakeClock(), []
        num = variant(clock, log, "n", [5.0, 4.0, 9.0, 6.0, 5.5])
        den = variant(clock, log, "d", [1.0, 1.0, 1.0, 2.0, 1.0])
        median, ratios = paired_ratio(num, den, pairs=5, clock=clock)
        # each ratio pairs a variant's timings whatever ran first
        assert ratios == [5.0, 4.0, 9.0, 3.0, 5.5]
        assert median == 5.0

    def test_within_threshold_passes(self):
        # one pair hit by load does not move the median past the bound
        clock, log = FakeClock(), []
        median, _ = paired_ratio(
            variant(clock, log, "n", [1.02] * 9 + [2.0]),
            variant(clock, log, "d", [1.0] * 10), clock=clock)
        assert median == pytest.approx(1.02) and median <= 1.05

    def test_regression_over_threshold_fails(self):
        # a real slowdown moves most pairs, and so the median
        clock, log = FakeClock(), []
        median, ratios = paired_ratio(
            variant(clock, log, "n", [1.0] * 3 + [1.2] * 7),
            variant(clock, log, "d", [1.0] * 10), clock=clock)
        assert len(ratios) == 10
        assert median == pytest.approx(1.2) and median > 1.05

    def test_disagreeing_instance_raises(self):
        clock, log = FakeClock(), []
        num = variant(clock, log, "n", [1.0] * 3, result="closure")
        den = variant(clock, log, "d", [1.0] * 3, result="other")
        with pytest.raises(AssertionError, match="different instances"):
            paired_ratio(num, den, pairs=3, clock=clock)

"""The committed E01/A01 history must gate the benchmarks that run today.

The trend gate keys each series by the row's exact ``config``; a config
field added or removed without re-seeding ``BENCH_e01.json`` /
``BENCH_a01.json`` / ``BENCH_e11.json`` leaves every fresh row a new
series with one point, which can never flag.  These tests pin the
committed store to the configs ``benchmarks/conftest.eval_config_info``
emits now.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks import test_a01_indexing_ablation as a01  # noqa: E402
from benchmarks import test_e01_transitive_closure as e01  # noqa: E402
from benchmarks.conftest import eval_config_info  # noqa: E402
from repro.observability.trend import (  # noqa: E402
    DEFAULT_MIN_POINTS,
    read_bench_rows,
    series_key,
)


def expected_series() -> dict[tuple, object]:
    """``{(exp, name): config}`` for every E01/A01/E11 timing
    benchmark."""
    out: dict[tuple, object] = {}
    for n in e01.SIZES:
        out["e01", f"test_logres_seminaive[{n}]"] = eval_config_info()
        out["e01", f"test_logres_reference[{n}]"] = \
            eval_config_info(reference=True)
        out["e01", f"test_flat_datalog_baseline[{n}]"] = None
        out["e01", f"test_algres_compiled[{n}]"] = None
    out["e01", f"test_logres_plan_on[{e01.PLAN_SIZE}]"] = \
        eval_config_info(plan=True)
    out["e01", f"test_logres_plan_off[{e01.PLAN_SIZE}]"] = \
        eval_config_info(plan=False)
    for n in a01.SIZES:
        for kind in ("indexed", "scan"):
            out["a01", f"test_indexing[{kind}-{n}]"] = None
    out["e11", "test_e01_disabled"] = eval_config_info(plan=True)
    for name in ("test_bus_publish_throughput", "test_e01_instrumented_sink",
                 "test_e01_instrumented_bus"):
        out["e11", name] = None
    return out


def committed_rows(exp: str) -> list[dict]:
    rows, warnings = read_bench_rows(ROOT / f"BENCH_{exp}.json")
    assert warnings == []
    return rows


@pytest.mark.parametrize("exp", ["e01", "a01", "e11"])
def test_latest_session_carries_todays_configs(exp):
    rows = committed_rows(exp)
    latest = rows[-1]["session"]
    measured = {
        (row["exp"], row["name"]): row["config"]
        for row in rows if row["session"] == latest
    }
    expected = {key: config for key, config in expected_series().items()
                if key[0] == exp}
    assert measured == expected


@pytest.mark.parametrize("exp", ["e01", "a01", "e11"])
def test_every_series_has_a_rolling_median(exp):
    # a fresh CI row makes the series long enough to flag
    points: dict[tuple, int] = {}
    for row in committed_rows(exp):
        key = series_key(row)
        points[key] = points.get(key, 0) + 1
    for (row_exp, name), config in expected_series().items():
        if row_exp != exp:
            continue
        key = series_key({"exp": exp, "name": name, "config": config})
        assert points.get(key, 0) >= DEFAULT_MIN_POINTS - 1, (name, config)


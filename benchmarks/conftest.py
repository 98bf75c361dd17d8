"""Shared benchmark helpers.

The paper (SIGMOD 1990) contains **no quantitative evaluation** — it is a
design overview.  This suite is the reconstructed experiment set E1-E10
documented in DESIGN.md §5: every benchmark regenerates one row/series of
the evaluation the paper *implies* (its worked examples and architecture
claims), with baselines where the paper names them (flat Datalog;
LOGRES-on-ALGRES translation).

Run with ``pytest benchmarks/ --benchmark-only``; grouping puts each
experiment's sweep in one table, which is the "row/series" shape recorded
in EXPERIMENTS.md.
"""

import pytest

from repro import Engine, EvalConfig, ResourceGuard, Semantics, parse_source


def build_unit(source):
    unit = parse_source(source)
    return unit.schema(), unit.program()


TC_SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""


@pytest.fixture(scope="session")
def tc_unit():
    return build_unit(TC_SOURCE)


def run_logres(schema, program, edb, semantics=Semantics.INFLATIONARY,
               plan=True, reference=False):
    """One run on the default kernel, or on the reference kernel
    (``EvalConfig(incremental=False)``) when ``reference`` is set."""
    engine = Engine(
        schema, program,
        EvalConfig(incremental=not reference, plan=plan,
                   guard=ResourceGuard(max_facts=2_000_000)),
    )
    return engine.run(edb, semantics)


def eval_config_info(plan=True, reference=False):
    """The ``benchmark.extra_info["config"]`` payload: which engine
    configuration a row measured (recorded into ``BENCH_*.json``)."""
    if reference:
        return {"kernel": "reference", "plan": False}
    return {"kernel": "incremental", "plan": plan}


def pytest_sessionfinish(session, exitstatus):
    """Persist session telemetry: BENCH_*.json rows at the repo root
    plus the reference run report (see benchmarks/telemetry.py).

    Disable with ``--benchmark-disable`` runs (no stats collected) or
    by setting ``REPRO_NO_TELEMETRY``.
    """
    import os

    if os.environ.get("REPRO_NO_TELEMETRY"):
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    from benchmarks import telemetry

    touched = telemetry.append_rows(bench_session.benchmarks)
    report_path = telemetry.write_reference_report()
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        for path in touched:
            tr.write_line(f"telemetry: appended rows to {path}")
        tr.write_line(f"telemetry: reference run report at {report_path}")

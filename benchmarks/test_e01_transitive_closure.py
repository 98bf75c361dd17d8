"""E1 — Recursive rules: ancestor/transitive closure.

Paper anchor: the recursive rules of Example 3.2 and the Section 3.2
positioning against flat Datalog systems (LDL / NAIL!).

Series: evaluation time vs |parent| for
  * the LOGRES engine, semi-naive pass,
  * the LOGRES reference kernel (the naive, copying inflationary
    operator, ``EvalConfig(incremental=False)``),
  * the flat Datalog baseline (semi-naive),
  * the LOGRES-on-ALGRES compiled plan.

Expected shape: semi-naive beats the reference kernel with a widening
gap; the flat
baseline is fastest (no labels / complex values to interpret); the
ALGRES route is slowest ("rather inefficiently", Section 1) — typically a
small constant factor over the native engine.
"""

import pytest

from benchmarks.conftest import eval_config_info, run_logres
from repro.compiler import compile_program
from repro.datalog import Atom, DVar, DatalogEngine, DatalogRule
from repro.workloads import random_edges

SIZES = [50, 100, 200]
#: the planner gate size: the ISSUE 6 acceptance point — plan=on must
#: be >= 5x faster than the plan=off semi-naive baseline here
PLAN_SIZE = 1000


def edge_pairs(facts):
    return {
        (f.value["par"], f.value["chil"]) for f in facts.facts_of("parent")
    }


@pytest.mark.parametrize("edges", SIZES)
@pytest.mark.benchmark(group="e01-transitive-closure")
def test_logres_seminaive(benchmark, tc_unit, edges):
    schema, program = tc_unit
    edb = random_edges(edges // 2, edges, seed=1)
    benchmark.extra_info["config"] = eval_config_info()
    out = benchmark(run_logres, schema, program, edb)
    assert out.count("anc") >= out.count("parent")


@pytest.mark.parametrize("edges", SIZES)
@pytest.mark.benchmark(group="e01-transitive-closure")
def test_logres_reference(benchmark, tc_unit, edges):
    schema, program = tc_unit
    edb = random_edges(edges // 2, edges, seed=1)
    benchmark.extra_info["config"] = eval_config_info(reference=True)
    out = benchmark(run_logres, schema, program, edb, reference=True)
    assert out.count("anc") >= out.count("parent")


@pytest.mark.parametrize("edges", [PLAN_SIZE])
@pytest.mark.benchmark(group="e01-transitive-closure")
def test_logres_plan_on(benchmark, tc_unit, edges):
    """The planned + compiled semi-naive path at the gate size."""
    schema, program = tc_unit
    edb = random_edges(edges // 2, edges, seed=1)
    benchmark.extra_info["config"] = eval_config_info(plan=True)
    out = benchmark(run_logres, schema, program, edb)
    assert out.count("anc") >= out.count("parent")


@pytest.mark.parametrize("edges", [PLAN_SIZE])
@pytest.mark.benchmark(group="e01-transitive-closure")
def test_logres_plan_off(benchmark, tc_unit, edges):
    """The dynamic-scheduler semi-naive baseline at the gate size."""
    schema, program = tc_unit
    edb = random_edges(edges // 2, edges, seed=1)
    benchmark.extra_info["config"] = eval_config_info(plan=False)
    out = benchmark(run_logres, schema, program, edb, plan=False)
    assert out.count("anc") >= out.count("parent")


@pytest.mark.parametrize("edges", SIZES)
@pytest.mark.benchmark(group="e01-transitive-closure")
def test_flat_datalog_baseline(benchmark, edges):
    X, Y, Z = DVar("X"), DVar("Y"), DVar("Z")
    rules = [
        DatalogRule(Atom("anc", X, Y), (Atom("parent", X, Y),)),
        DatalogRule(Atom("anc", X, Z),
                    (Atom("parent", X, Y), Atom("anc", Y, Z))),
    ]
    facts = {
        ("parent", pair)
        for pair in edge_pairs(random_edges(edges // 2, edges, seed=1))
    }
    out = benchmark(DatalogEngine(rules).seminaive, facts)
    assert any(pred == "anc" for pred, _ in out)


@pytest.mark.parametrize("edges", SIZES)
@pytest.mark.benchmark(group="e01-transitive-closure")
def test_algres_compiled(benchmark, tc_unit, edges):
    schema, program = tc_unit
    edb = random_edges(edges // 2, edges, seed=1)
    compiled = compile_program(program, schema)
    out = benchmark(compiled.run, edb)
    assert out.count("anc") >= out.count("parent")


def test_all_routes_agree(tc_unit):
    """Correctness gate for the whole experiment: every measured system
    computes the same closure."""
    schema, program = tc_unit
    edb = random_edges(40, 80, seed=3)
    native = run_logres(schema, program, edb)
    reference = run_logres(schema, program, edb, reference=True)
    unplanned = run_logres(schema, program, edb, plan=False)
    compiled = compile_program(program, schema).run(edb)
    assert native == reference == unplanned == compiled

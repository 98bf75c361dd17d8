"""E3 — Data functions for nesting (Examples 2.2 / 3.2).

Paper anchor: data functions were introduced "with two main purposes:
performing nesting and unnesting operations" (Section 2.2 comparison
with IQL).

Series: time to compute the nested ancestor/descendants association vs
the size of the genealogy forest, for
  * the LOGRES route — recursive data function + one nesting rule,
  * the ALGRES route — closure then an explicit Nest operator (what a
    value-oriented NF² system without data functions would run).

Expected shape: both scale with the size of the closure; the ALGRES
route is faster in this engine (set-at-a-time joins beat the
tuple-at-a-time member recursion), which matches the paper's plan of
implementing LOGRES *on top of* ALGRES restructuring operators.
"""

import pytest

from benchmarks.conftest import build_unit
from repro import Engine, EvalConfig, ResourceGuard, Semantics
from repro.algres import (
    Catalog,
    Closure,
    Join,
    Nest,
    Project,
    Relation,
    Rename,
    Scan,
    evaluate,
)
from repro.compiler import factset_to_catalog
from repro.workloads import genealogy_facts, genealogy_schema

DESCENDANTS_SOURCE = """
associations
  parent = (par: string, chil: string).
  ancestor = (anc: string, des: {string}).
functions
  desc: string -> {string}.
  member(X, desc(Y)) <- parent(par Y, chil X).
  member(X, desc(Y)) <- parent(par Y, chil Z), member(X, T),
                        T = desc(Z).
rules
  ancestor(anc X, des Y) <- parent(par X), Y = desc(X).
"""

SIZES = [30, 60, 120]


@pytest.mark.parametrize("people", SIZES)
@pytest.mark.benchmark(group="e03-data-functions")
def test_logres_data_function_nesting(benchmark, people):
    schema, program = build_unit(DESCENDANTS_SOURCE)
    edb = genealogy_facts(people, seed=7)

    def run():
        engine = Engine(schema, program,
                        EvalConfig(guard=ResourceGuard(max_facts=500_000)))
        return engine.run(edb, Semantics.STRATIFIED)

    out = benchmark(run)
    assert out.count("ancestor") > 0


def algres_nested_descendants(edb, schema):
    catalog = factset_to_catalog(edb, schema)
    base = Rename(Scan("parent"), {"par": "anc", "chil": "des"})
    step = Project(
        Join(Rename(Scan("$iter"), {"des": "mid"}),
             Rename(Scan("parent"), {"par": "mid", "chil": "des"})),
        "anc", "des",
    )
    return evaluate(Nest(Closure(base, step), ["des"], "descendants"),
                    catalog)


@pytest.mark.parametrize("people", SIZES)
@pytest.mark.benchmark(group="e03-data-functions")
def test_algres_closure_plus_nest(benchmark, people):
    schema = genealogy_schema()
    edb = genealogy_facts(people, seed=7)
    out = benchmark(algres_nested_descendants, edb, schema)
    assert len(out) > 0


def test_routes_agree():
    schema, program = build_unit(DESCENDANTS_SOURCE)
    edb = genealogy_facts(40, seed=7)
    engine = Engine(schema, program)
    logres = engine.run(edb, Semantics.STRATIFIED)
    logres_rows = {
        (f.value["anc"], frozenset(f.value["des"]))
        for f in logres.facts_of("ancestor")
    }
    algres = algres_nested_descendants(edb, genealogy_schema())
    algres_rows = {
        (r["anc"], frozenset(r["descendants"])) for r in algres
    }
    assert logres_rows == algres_rows

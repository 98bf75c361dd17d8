"""Differential property tests for the planner + compiled rule bodies.

``EvalConfig(plan=True)`` reorders rule bodies from live statistics and,
for rules in the compilable fragment, replaces the generic matcher with
specialized closures (:mod:`repro.engine.compile`) from the rule's first
valuation.  These tests pin the planned/compiled engine to the unplanned
reference:

* 100 randomized flat rule programs (joins, recursion, filters,
  arithmetic, negation, deletion heads — the same generator the
  incremental-kernel suite uses) must produce **bit-identical**
  fixpoints under the inflationary, stratified and non-inflationary
  semantics, with identical failure behaviour;
* stratified negation programs must agree stratum by stratum;
* oid invention feeding other rule *bodies* must be isomorphic
  (numbering may depend on enumeration order);
* the reference kernel (``incremental=False``) plans but never runs a
  compiled body, so it stays an independent specification.
"""

import random

import pytest

from repro import Engine, EvalConfig, FactSet, Semantics, parse_source
from repro.cli import main
from repro.errors import LogresError
from tests.test_incremental_kernel import (
    MAX_ITERATIONS,
    random_edb,
    random_program,
)

SEEDS = range(100)

ALL_SEMANTICS = (
    Semantics.INFLATIONARY,
    Semantics.STRATIFIED,
    Semantics.NONINFLATIONARY,
)


def outcome(schema, program, edb, semantics, plan):
    config = EvalConfig(
        max_iterations=MAX_ITERATIONS,
        max_facts=50_000,
        plan=plan,
    )
    engine = Engine(schema, program, config)
    try:
        return "ok", engine.run(edb.copy(), semantics)
    except LogresError as exc:
        return "error", type(exc).__name__


@pytest.mark.parametrize("seed", SEEDS)
def test_planned_matches_reference(seed):
    rng = random.Random(seed)
    source = random_program(rng)
    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    for semantics in ALL_SEMANTICS:
        planned = outcome(schema, program, edb, semantics, plan=True)
        reference = outcome(schema, program, edb, semantics, plan=False)
        assert planned[0] == reference[0], \
            (semantics, source, planned, reference)
        assert planned[1] == reference[1], (semantics, source)


STRATIFIED_SOURCE = """
associations
  e = (a: string, b: string).
  reach = (a: string, b: string).
  unreach = (a: string, b: string).
rules
  reach(a X, b Y) <- e(a X, b Y).
  reach(a X, b Z) <- e(a X, b Y), reach(a Y, b Z).
  unreach(a X, b Y) <- e(a X, b X2), e(a Y, b Y2), ~reach(a X, b Y).
"""


@pytest.mark.parametrize("seed", range(20))
def test_stratified_negation_planned(seed):
    unit = parse_source(STRATIFIED_SOURCE)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(random.Random(3000 + seed))
    planned = outcome(schema, program, edb, Semantics.STRATIFIED, True)
    reference = outcome(schema, program, edb, Semantics.STRATIFIED, False)
    assert planned == reference


INVENTION_BODY_SOURCE = """
classes
  node = (name: string).
associations
  e = (a: string, b: string).
  named = (n: string, m: string).
rules
  node(name X) <- e(a X, b Y).
  named(n X, m Y) <- node(self S, name X), node(self T, name Y),
                     e(a X, b Y).
"""


@pytest.mark.parametrize("seed", range(20))
def test_invention_in_body_isomorphic(seed):
    """Invented class facts read back in another rule's body: the
    planner must schedule the class literals (self positions) exactly
    like the dynamic scheduler, and the instances must be isomorphic."""
    unit = parse_source(INVENTION_BODY_SOURCE)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(random.Random(4000 + seed))
    planned = outcome(schema, program, edb, Semantics.INFLATIONARY, True)
    reference = outcome(schema, program, edb, Semantics.INFLATIONARY,
                        False)
    assert planned[0] == reference[0] == "ok"
    assert planned[1].to_instance().isomorphic_to(
        reference[1].to_instance()
    )
    named_planned = {
        f.value for f in planned[1].facts() if f.pred == "named"
    }
    named_reference = {
        f.value for f in reference[1].facts() if f.pred == "named"
    }
    assert named_planned == named_reference


CHAIN_SOURCE = """
associations
  e = (a: string, b: string).
  tc = (a: string, b: string).
rules
""" + "".join(f'  e(a "n{i}", b "n{i + 1}").\n' for i in range(6)) + """
  tc(a X, b Y) <- e(a X, b Y).
  tc(a X, b Z) <- e(a X, b Y), tc(a Y, b Z).
"""


def refuse_compiling(monkeypatch):
    def compile_rule(*args, **kwargs):
        raise AssertionError("the reference kernel compiled a rule body")
    monkeypatch.setattr("repro.engine.compile.compile_rule", compile_rule)


@pytest.mark.parametrize("semantics", ALL_SEMANTICS,
                         ids=lambda s: s.value)
def test_the_reference_kernel_runs_no_compiled_body(semantics,
                                                    monkeypatch):
    """``incremental=False`` keeps ``plan`` on but compiles nothing: the
    copying kernel is the generic specification the compiled bodies
    are checked against."""
    unit = parse_source(CHAIN_SOURCE)
    schema, program = unit.schema(), unit.program()
    default = Engine(schema, program)
    want = default.run(FactSet(), semantics)
    assert any(r.compiled is not None for r in default.runtimes)
    assert want.count("tc") == 6 * 7 // 2
    refuse_compiling(monkeypatch)
    reference = Engine(schema, program, EvalConfig(incremental=False))
    assert reference.run(FactSet(), semantics) == want


def test_repro_run_reference_compiles_nothing(tmp_path, capsys,
                                              monkeypatch):
    path = tmp_path / "chain.lg"
    path.write_text(CHAIN_SOURCE)
    assert main(["run", str(path)]) == 0
    want = capsys.readouterr().out
    refuse_compiling(monkeypatch)
    assert main(["run", str(path), "--reference"]) == 0
    assert capsys.readouterr().out == want

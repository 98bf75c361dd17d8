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
* with no component positions (:func:`repro.engine.compile._positions`
  returning None) every unrolled step and seed runs the generic op
  matcher, which must match the reference kernel too;
* random programs with constants in body literals and a variable
  repeated inside one literal (the generator's ``const`` and ``diag``
  shapes) must match it with and without component positions;
* the reference kernel (``incremental=False``) never plans, never
  compiles and never runs semi-naive, under every semantics, so it
  stays an independent specification.
"""

import dataclasses
import random

import pytest

from repro import (
    Engine,
    EvalConfig,
    FactSet,
    ResourceGuard,
    Semantics,
    parse_source,
)
from repro.cli import main
from repro.errors import LogresError
from tests.kernels import REFERENCE
from tests.test_incremental_kernel import (
    EXTRA_SHAPES,
    MAX_ITERATIONS,
    SHAPES,
    random_edb,
    random_program,
)

SEEDS = range(100)

ALL_SEMANTICS = (
    Semantics.INFLATIONARY,
    Semantics.STRATIFIED,
    Semantics.NONINFLATIONARY,
)


def outcome(schema, program, edb, semantics, plan, config=None):
    config = dataclasses.replace(
        config or EvalConfig(),
        max_iterations=MAX_ITERATIONS,
        plan=plan,
        guard=ResourceGuard(max_facts=50_000),
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


@pytest.mark.parametrize("seed", range(40))
def test_generic_loops_match_reference_without_positions(seed,
                                                         monkeypatch):
    """When the schema cannot give component positions, every unrolled
    step and seed falls back to the generic op matcher; it must derive
    what the reference kernel derives."""
    calls = []

    def no_positions(*args):
        calls.append(args)
        return None

    monkeypatch.setattr("repro.engine.compile._positions", no_positions)
    rng = random.Random(seed)
    source = random_program(rng)
    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    for semantics in ALL_SEMANTICS:
        planned = outcome(schema, program, edb, semantics, plan=True)
        reference = outcome(schema, program, edb, semantics,
                            plan=False, config=REFERENCE)
        assert planned == reference, (semantics, source)
    assert calls, "no rule reached an unrolled shape"


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("positions", (True, False),
                         ids=("unrolled", "generic"))
def test_constants_and_repeated_variables_match_reference(seed, positions,
                                                          monkeypatch):
    """Random programs with constants in body literals (``const``) and
    a variable repeated inside one literal (``diag``): the compiled op
    matcher checks both, in full runs, index lookups and delta seeds,
    with and without component positions for the unrolled shapes."""
    if not positions:
        monkeypatch.setattr("repro.engine.compile._positions",
                            lambda *args: None)
    rng = random.Random(seed)
    source = random_program(rng, shapes=SHAPES + EXTRA_SHAPES)
    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    for semantics in ALL_SEMANTICS:
        planned = outcome(schema, program, edb, semantics, plan=True)
        reference = outcome(schema, program, edb, semantics,
                            plan=False, config=REFERENCE)
        assert planned == reference, (semantics, source)


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


#: the chain's closure below a stratum that reads it under negation:
#: the default kernel runs it semi-naive per stratum under stratified
#: semantics and on the general path under inflationary semantics
NEGATION_SOURCE = CHAIN_SOURCE.replace(
    "  tc = (a: string, b: string).\n",
    "  tc = (a: string, b: string).\n  gap = (a: string, b: string).\n",
) + """
  gap(a X, b Y) <- e(a X, b X2), e(a Y, b Y2), ~tc(a X, b Y).
"""


@pytest.mark.parametrize("semantics", ALL_SEMANTICS,
                         ids=lambda s: s.value)
def test_the_reference_kernel_runs_no_compiled_body(semantics,
                                                    monkeypatch):
    """``incremental=False`` plans nothing, compiles nothing and never
    runs semi-naive, under every semantics: the copying kernel is the
    generic specification the fast paths are checked against."""
    default_runs = []
    for source in (CHAIN_SOURCE, NEGATION_SOURCE):
        unit = parse_source(source)
        schema, program = unit.schema(), unit.program()
        default = Engine(schema, program)
        want = default.run(FactSet(), semantics)
        assert any(r.compiled is not None for r in default.runtimes)
        assert want.count("tc") == 6 * 7 // 2
        default_runs.append((schema, program, want))
    refuse_compiling(monkeypatch)
    for schema, program, want in default_runs:
        reference = Engine(schema, program, REFERENCE)
        assert reference.run(FactSet(), semantics) == want
        assert not reference.stats.used_seminaive
        assert reference.plans == []
        assert all(r.plan is None and r.compiled is None
                   for r in reference.runtimes)


def test_repro_run_reference_compiles_nothing(tmp_path, capsys,
                                              monkeypatch):
    path = tmp_path / "chain.lg"
    path.write_text(CHAIN_SOURCE)
    assert main(["run", str(path)]) == 0
    want = capsys.readouterr().out
    refuse_compiling(monkeypatch)
    assert main(["run", str(path), "--reference"]) == 0
    assert capsys.readouterr().out == want


REPEATED_SOURCE = """
associations
  e = (a: integer, b: integer).
  q = (a: integer, b: integer).
  s = (x: integer).
  p = (x: integer).
  r = (x: integer).
rules
  q(a X, b Y) <- e(a X, b Y).
  p(x X) <- q(a X, b X).
  r(x X) <- q(a X, b X), s(x X).
"""


def test_a_delta_seed_checks_a_repeated_variable():
    """A delta fact seeds ``q(a X, b X)`` only when both components
    agree: the compiled seed's op matcher checks the second occurrence of
    ``X`` against the register the first one bound.  In ``run`` the
    ``q`` facts arrive as the second round's delta; in ``extend`` the
    inserted ``q(a 6, b 7)`` is the delta itself."""
    from repro.storage.factset import Fact
    from repro.values.complex import TupleValue

    unit = parse_source(REPEATED_SOURCE)
    schema, program = unit.schema(), unit.program()
    edb = FactSet()
    for a, b in ((1, 2), (3, 3), (4, 5)):
        edb.add_association("e", TupleValue(a=a, b=b))
    for x in range(1, 8):
        edb.add_association("s", TupleValue(x=x))
    engine = Engine(schema, program)
    got = engine.run(edb, Semantics.INFLATIONARY)
    assert engine.stats.used_seminaive
    seeded = {pred for r in engine.runtimes if r.compiled is not None
              for _, pred in r.compiled.seed_specs}
    assert "q" in seeded
    want = Engine(schema, program, REFERENCE).run(edb)
    assert got == want
    assert {f.value["x"] for f in want.facts_of("p")} == {3}
    assert {f.value["x"] for f in want.facts_of("r")} == {3}

    inserted = Fact("q", TupleValue(a=6, b=7))
    grown = edb.copy()
    grown.add(inserted)
    added = engine.extend(got, [inserted], grown, Semantics.INFLATIONARY)
    assert list(added.facts()) == [inserted]
    assert got == Engine(schema, program, REFERENCE).run(grown)

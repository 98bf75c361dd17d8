"""Compiled rule bodies on the shapes the random programs rarely draw.

Every positive literal, negation and delta seed of a compiled body that
is not one of the unrolled bench shapes runs one op matcher
(:func:`repro.engine.compile._matches`) over one of three candidate
sources (:func:`repro.engine.compile._candidates`).  Each case below
builds one small program whose target rule compiles, and pins the
default engine to the reference kernel under every semantics:

* a constant checked against each delta fact that seeds a literal;
* a second constant checked after a constant keyed the index lookup;
* a constant inside a fully bound negated literal;
* a variable repeated inside one literal of a full-run scan.

The bench-shaped families (reach, rbac, genealogy) compile every rule
under the default configuration.
"""

import pytest

from repro import Engine, FactSet, Semantics, parse_source
from repro.values.complex import TupleValue
from repro.workloads.families import FAMILIES
from tests.kernels import REFERENCE

ALL_SEMANTICS = (
    Semantics.INFLATIONARY,
    Semantics.STRATIFIED,
    Semantics.NONINFLATIONARY,
)


def edb_of(**tables) -> FactSet:
    """``name=[{label: value, ...}, ...]`` -> an association EDB."""
    facts = FactSet()
    for pred, rows in tables.items():
        for row in rows:
            facts.add_association(pred, TupleValue(row))
    return facts


def edges(*pairs) -> list[dict]:
    return [{"a": a, "b": b} for a, b in pairs]


def assert_compiled_matches_reference(source, edb, target, semantics):
    """Run ``source`` over ``edb`` with the default engine and with the
    reference kernel: the rule deriving ``target`` must have run
    compiled, and the answers must agree."""
    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    engine = Engine(schema, program)
    got = engine.run(edb.copy(), semantics)
    targets = [r for r in engine.runtimes
               if r.rule.head is not None and r.rule.head.pred == target]
    assert targets and all(r.compiled is not None for r in targets)
    want = Engine(schema, program, REFERENCE).run(edb.copy(), semantics)
    assert got == want
    return want


CHAIN_EDGES = edges(("n0", "n1"), ("n1", "n2"), ("n2", "n3"),
                    ("n3", "n4"), ("n1", "n4"))

SEED_CONSTANT_SOURCE = """
associations
  e = (a: string, b: string).
  reach = (a: string, b: string).
  from1 = (b: string).
rules
  reach(a X, b Y) <- e(a X, b Y).
  reach(a X, b Z) <- reach(a X, b Y), e(a Y, b Z).
  from1(b Y) <- reach(a "n1", b Y).
"""


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=lambda s: s.value)
def test_a_delta_seed_checks_a_constant(semantics):
    """Under inflationary semantics every ``reach`` fact after the first
    round arrives as a delta and seeds ``reach(a "n1", b Y)``, whose
    seed checks the constant against the fact's ``a`` component."""
    want = assert_compiled_matches_reference(
        SEED_CONSTANT_SOURCE, edb_of(e=CHAIN_EDGES), "from1", semantics)
    assert {f.value["b"] for f in want.facts_of("from1")} == \
        {"n2", "n3", "n4"}


SECOND_CONSTANT_SOURCE = """
associations
  t = (a: string, b: string, c: string).
  p = (x: string).
rules
  p(x X) <- t(a "k", b X, c "m").
"""


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=lambda s: s.value)
def test_a_second_constant_after_a_constant_keyed_lookup(semantics):
    """The first constant keys the index bucket; the second is checked
    on every value of that bucket."""
    edb = edb_of(t=[
        {"a": "k", "b": "x1", "c": "m"},
        {"a": "k", "b": "x2", "c": "z"},
        {"a": "j", "b": "x3", "c": "m"},
        {"a": "k", "b": "x4", "c": "m"},
    ])
    want = assert_compiled_matches_reference(
        SECOND_CONSTANT_SOURCE, edb, "p", semantics)
    assert {f.value["x"] for f in want.facts_of("p")} == {"x1", "x4"}


NEGATED_CONSTANT_SOURCE = """
associations
  e = (a: string, b: string).
  blocked = (a: string, b: string).
  ok = (a: string, b: string).
rules
  ok(a X, b Y) <- e(a X, b Y), ~blocked(a Y, b "n0").
"""


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=lambda s: s.value)
def test_a_fully_bound_negation_checks_a_constant(semantics):
    """``blocked(a Y, b "n0")`` probes the bucket of ``Y`` and must find
    a witness whose ``b`` is the constant: ``n3`` is blocked by ``n1``,
    not ``n0``, so its edge survives."""
    edb = edb_of(e=CHAIN_EDGES,
                 blocked=edges(("n2", "n0"), ("n3", "n1")))
    want = assert_compiled_matches_reference(
        NEGATED_CONSTANT_SOURCE, edb, "ok", semantics)
    assert {(f.value["a"], f.value["b"]) for f in want.facts_of("ok")} == \
        {("n0", "n1"), ("n2", "n3"), ("n3", "n4"), ("n1", "n4")}


REPEATED_SCAN_SOURCE = """
associations
  e = (a: string, b: string).
  loop = (x: string).
rules
  loop(x X) <- e(a X, b X).
"""


@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=lambda s: s.value)
def test_a_full_run_scan_checks_a_repeated_variable(semantics):
    """The scan binds ``X`` from ``a`` and checks ``b`` against it."""
    edb = edb_of(e=edges(("n0", "n0"), ("n0", "n1"), ("n2", "n2"),
                         ("n3", "n1")))
    want = assert_compiled_matches_reference(
        REPEATED_SCAN_SOURCE, edb, "loop", semantics)
    assert {f.value["x"] for f in want.facts_of("loop")} == {"n0", "n2"}


@pytest.mark.parametrize("family", ("reach", "rbac", "genealogy"))
@pytest.mark.parametrize("semantics", ALL_SEMANTICS, ids=lambda s: s.value)
def test_every_rule_of_the_bench_families_compiles(family, semantics):
    schema, program, edb = FAMILIES[family].build(60, 0)
    engine = Engine(schema, program)
    got = engine.run(edb.copy(), semantics)
    rules = [r for r in engine.runtimes if r.rule.head is not None]
    assert rules and all(r.compiled is not None for r in rules), [
        r.rule for r in rules if r.compiled is None]
    assert got == Engine(schema, program, REFERENCE).run(edb, semantics)

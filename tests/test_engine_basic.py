"""Engine tests: positive rules, joins, recursion, builtins, goals."""

import dataclasses

import pytest

from repro import (
    Engine,
    EvalConfig,
    FactSet,
    ResourceGuard,
    Semantics,
    TupleValue,
)
from repro.engine.goals import answer_goal, goal_holds
from repro.errors import NonTerminationError
from repro.language.parser import parse_program, parse_source
from tests.kernels import REFERENCE


def run(schema, program_text, edb, semantics=Semantics.INFLATIONARY,
        config=None):
    engine = Engine(schema, parse_program(program_text), config=config)
    return engine.run(edb, semantics), engine


def pairs(facts, pred, a, b):
    return sorted((f.value[a], f.value[b]) for f in facts.facts_of(pred))


class TestTransitiveClosure:
    def test_chain(self, edge_schema, chain_parents, tc_program):
        engine = Engine(edge_schema, tc_program)
        out = engine.run(chain_parents)
        assert pairs(out, "anc", "a", "d") == [
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d"),
        ]

    def test_edb_is_not_mutated(self, edge_schema, chain_parents,
                                tc_program):
        before = chain_parents.copy()
        Engine(edge_schema, tc_program).run(chain_parents)
        assert chain_parents == before

    def test_seminaive_and_naive_agree(self, edge_schema, chain_parents,
                                       tc_program):
        fast = Engine(edge_schema, tc_program, EvalConfig())
        slow = Engine(edge_schema, tc_program, REFERENCE)
        assert fast.run(chain_parents) == slow.run(chain_parents)
        assert fast.stats.used_seminaive
        assert not slow.stats.used_seminaive

    def test_empty_edb_gives_empty_idb(self, edge_schema, tc_program):
        out = Engine(edge_schema, tc_program).run(FactSet())
        assert out.count() == 0


class TestJoinsAndSelections:
    def test_join_through_shared_variable(self, edge_schema):
        edb = FactSet()
        for p, c in [("a", "b"), ("b", "c")]:
            edb.add_association("parent", TupleValue(par=p, chil=c))
        out, _ = run(
            edge_schema,
            "anc(a X, d Z) <- parent(par X, chil Y),"
            " parent(par Y, chil Z).",
            edb,
        )
        assert pairs(out, "anc", "a", "d") == [("a", "c")]

    def test_constant_selection(self, edge_schema, chain_parents):
        out, _ = run(
            edge_schema,
            'anc(a "a", d Y) <- parent(par "a", chil Y).',
            chain_parents,
        )
        assert pairs(out, "anc", "a", "d") == [("a", "b")]

    def test_comparison_filter(self):
        unit = parse_source("""
        associations
          n = (v: integer).
          big = (v: integer).
        rules
          big(v X) <- n(v X), X > 2.
        """)
        edb = FactSet()
        for i in range(5):
            edb.add_association("n", TupleValue(v=i))
        out = Engine(unit.schema(), unit.program()).run(edb)
        assert sorted(f.value["v"] for f in out.facts_of("big")) == [3, 4]

    def test_arithmetic_binding(self):
        unit = parse_source("""
        associations
          n = (v: integer).
          double = (v: integer, d: integer).
        rules
          double(v X, d Y) <- n(v X), Y = X * 2.
        """)
        edb = FactSet()
        edb.add_association("n", TupleValue(v=3))
        out = Engine(unit.schema(), unit.program()).run(edb)
        assert pairs(out, "double", "v", "d") == [(3, 6)]

    def test_same_generation(self):
        unit = parse_source("""
        associations
          parent = (par: string, chil: string).
          sg = (l: string, r: string).
        rules
          sg(l X, r X) <- parent(par P, chil X).
          sg(l X, r Y) <- parent(par P1, chil X),
                          parent(par P2, chil Y), sg(l P1, r P2).
        """)
        edb = FactSet()
        for p, c in [("top", "r"), ("r", "a"), ("r", "b"),
                     ("a", "x"), ("b", "y")]:
            edb.add_association("parent", TupleValue(par=p, chil=c))
        out = Engine(unit.schema(), unit.program()).run(edb)
        sg = set(pairs(out, "sg", "l", "r"))
        assert ("x", "y") in sg
        assert ("a", "b") in sg
        assert ("a", "x") not in sg


class TestFactRules:
    def test_facts_fire_once(self, edge_schema):
        out, engine = run(
            edge_schema,
            'parent(par "a", chil "b").',
            FactSet(),
        )
        assert out.count("parent") == 1

    def test_fact_with_rule_interaction(self, edge_schema):
        out, _ = run(
            edge_schema,
            """
            parent(par "a", chil "b").
            anc(a X, d Y) <- parent(par X, chil Y).
            """,
            FactSet(),
        )
        assert pairs(out, "anc", "a", "d") == [("a", "b")]


class TestBudgets:
    def test_fact_budget_enforced(self):
        unit = parse_source("""
        associations
          n = (v: integer).
        rules
          n(v Y) <- n(v X), Y = X + 1.
        """)
        edb = FactSet()
        edb.add_association("n", TupleValue(v=0))
        engine = Engine(unit.schema(), unit.program(),
                        dataclasses.replace(
                            REFERENCE, guard=ResourceGuard(max_facts=50)))
        with pytest.raises(NonTerminationError):
            engine.run(edb)

    def test_iteration_budget_enforced(self):
        unit = parse_source("""
        associations
          n = (v: integer).
        rules
          n(v Y) <- n(v X), Y = X + 1.
        """)
        edb = FactSet()
        edb.add_association("n", TupleValue(v=0))
        engine = Engine(unit.schema(), unit.program(),
                        dataclasses.replace(REFERENCE, max_iterations=5))
        with pytest.raises(NonTerminationError) as err:
            engine.run(edb)
        assert err.value.iterations >= 5

    def test_seminaive_budget_enforced(self):
        unit = parse_source("""
        associations
          n = (v: integer).
        rules
          n(v Y) <- n(v X), Y = X + 1.
        """)
        edb = FactSet()
        edb.add_association("n", TupleValue(v=0))
        engine = Engine(unit.schema(), unit.program(),
                        EvalConfig(guard=ResourceGuard(max_facts=50)))
        with pytest.raises(NonTerminationError):
            engine.run(edb)


class TestGoals:
    def test_answer_goal_bindings(self, edge_schema, chain_parents,
                                  tc_program):
        out = Engine(edge_schema, tc_program).run(chain_parents)
        goal = parse_source('goal\n ?- anc(a "a", d D).').goal
        answers = answer_goal(goal, out, edge_schema)
        assert sorted(a["D"] for a in answers) == ["b", "c", "d"]

    def test_goal_with_negation(self, edge_schema, chain_parents,
                                tc_program):
        out = Engine(edge_schema, tc_program).run(chain_parents)
        goal = parse_source(
            'goal\n ?- parent(par X, chil Y), ~anc(a Y, d "d").'
        ).goal
        answers = answer_goal(goal, out, edge_schema)
        assert {(a["X"], a["Y"]) for a in answers} == {("c", "d")}

    def test_goal_holds(self, edge_schema, chain_parents, tc_program):
        out = Engine(edge_schema, tc_program).run(chain_parents)
        yes = parse_source('goal\n ?- anc(a "a", d "d").').goal
        no = parse_source('goal\n ?- anc(a "d", d "a").').goal
        assert goal_holds(yes, out, edge_schema)
        assert not goal_holds(no, out, edge_schema)

    def test_duplicate_answers_collapsed(self, edge_schema, chain_parents,
                                         tc_program):
        out = Engine(edge_schema, tc_program).run(chain_parents)
        goal = parse_source("goal\n ?- anc(a X).").goal
        answers = answer_goal(goal, out, edge_schema)
        assert sorted(a["X"] for a in answers) == ["a", "b", "c"]


class TestStats:
    def test_stats_populated(self, edge_schema, chain_parents, tc_program):
        engine = Engine(edge_schema, tc_program)
        engine.run(chain_parents)
        assert engine.stats.iterations >= 2
        assert engine.stats.facts_derived >= 6


class TestEngineObservability:
    def test_strata_counted_under_stratified_semantics(self):
        from repro import Semantics
        from repro.language.parser import parse_source

        unit = parse_source("""
        associations
          edge = (a: string, b: string).
          tc = (a: string, b: string).
          leaf = (n: string).
        rules
          tc(a X, b Y) <- edge(a X, b Y).
          tc(a X, b Z) <- edge(a X, b Y), tc(a Y, b Z).
          leaf(n Y) <- edge(a X, b Y), ~edge(a Y).
        """)
        edb = FactSet()
        edb.add_association("edge", TupleValue(a="x", b="y"))
        engine = Engine(unit.schema(), unit.program())
        engine.run(edb, Semantics.STRATIFIED)
        assert engine.stats.strata == 2

    def test_stats_reset_between_runs(self, edge_schema, chain_parents,
                                      tc_program):
        engine = Engine(edge_schema, tc_program)
        engine.run(chain_parents)
        first = engine.stats.iterations
        engine.run(FactSet())
        assert engine.stats.iterations < first

    def test_run_is_repeatable_on_same_engine(self, edge_schema,
                                              chain_parents, tc_program):
        engine = Engine(edge_schema, tc_program)
        assert engine.run(chain_parents) == engine.run(chain_parents)

"""Engine tests: the three semantics and their relationships."""

import pytest

from repro import Engine, EvalConfig, FactSet, Semantics, TupleValue
from repro.engine.fixpoint import stratify_runtimes
from repro.errors import NonTerminationError
from repro.language.parser import parse_source
from tests.kernels import REFERENCE


def build(text):
    unit = parse_source(text)
    return unit.schema(), unit.program()


def edges(*pairs):
    facts = FactSet()
    for a, b in pairs:
        facts.add_association("edge", TupleValue(a=a, b=b))
    return facts


WIN_SOURCE = """
associations
  edge = (a: string, b: string).
  win = (p: string).
rules
  win(p X) <- edge(a X, b Y), ~win(p Y).
"""


class TestStratifiedVsInflationary:
    def test_agree_on_stratified_programs(self):
        schema, program = build("""
        associations
          edge = (a: string, b: string).
          tc = (a: string, b: string).
          missing = (a: string, b: string).
        rules
          tc(a X, b Y) <- edge(a X, b Y).
          tc(a X, b Z) <- edge(a X, b Y), tc(a Y, b Z).
          missing(a X, b Y) <- edge(a X, b Y), ~tc(a Y, b X).
        """)
        edb = edges(("x", "y"), ("y", "x"), ("y", "z"))
        inflationary = Engine(schema, program).run(
            edb, Semantics.INFLATIONARY
        )
        stratified = Engine(schema, program).run(
            edb, Semantics.STRATIFIED
        )
        # On this program the negated predicate tc is already total when
        # missing fires in the inflationary run's later steps — but the
        # early steps of the inflationary run can also fire with tc still
        # partial, so only the stratified run is the perfect model.
        perfect = {(f.value["a"], f.value["b"])
                   for f in stratified.facts_of("missing")}
        assert perfect == {("y", "z")}
        inflat = {(f.value["a"], f.value["b"])
                  for f in inflationary.facts_of("missing")}
        assert perfect <= inflat

    def test_win_move_differs_between_semantics(self):
        """The classic game program distinguishes inflationary from
        perfect-model evaluation on a chain of length 3 (a->b->c)."""
        schema, program = build(WIN_SOURCE)
        edb = edges(("a", "b"), ("b", "c"))
        inflationary = Engine(schema, program).run(
            edb, Semantics.INFLATIONARY
        )
        inflat_winners = sorted(
            f.value["p"] for f in inflationary.facts_of("win")
        )
        assert inflat_winners == ["a", "b"]  # both fire in step one
        # the program is not stratified: stratified semantics refuses
        from repro.errors import StratificationError

        with pytest.raises(StratificationError):
            Engine(schema, program).run(edb, Semantics.STRATIFIED)


class TestNonInflationary:
    def test_converges_on_monotone_program(self):
        schema, program = build("""
        associations
          edge = (a: string, b: string).
          tc = (a: string, b: string).
        rules
          tc(a X, b Y) <- edge(a X, b Y).
          tc(a X, b Z) <- edge(a X, b Y), tc(a Y, b Z).
        """)
        edb = edges(("x", "y"), ("y", "z"))
        out_non = Engine(schema, program).run(
            edb, Semantics.NONINFLATIONARY
        )
        out_inf = Engine(schema, program).run(edb)
        assert out_non == out_inf

    def test_oscillation_detected(self):
        # p flips each step: p empty -> derived -> blocked -> derived ...
        schema, program = build("""
        associations
          seed = (v: integer).
          p = (v: integer).
        rules
          p(v X) <- seed(v X), ~p(v X).
        """)
        edb = FactSet()
        edb.add_association("seed", TupleValue(v=1))
        engine = Engine(schema, program, EvalConfig(max_iterations=50))
        with pytest.raises(NonTerminationError, match="oscillates"):
            engine.run(edb, Semantics.NONINFLATIONARY)

    def test_derived_facts_not_in_edb_are_recomputed(self):
        # non-inflationary keeps E and recomputes the IDB from scratch,
        # so a derived fact whose support disappears would vanish; with
        # stable support the result matches the inflationary one
        schema, program = build("""
        associations
          src = (v: integer).
          out = (v: integer).
        rules
          out(v X) <- src(v X).
        """)
        edb = FactSet()
        edb.add_association("src", TupleValue(v=1))
        result = Engine(schema, program).run(
            edb, Semantics.NONINFLATIONARY
        )
        assert [f.value["v"] for f in result.facts_of("out")] == [1]


class TestSeminaiveEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_seminaive_equals_naive_on_random_graphs(self, seed):
        from repro.workloads import random_edges

        schema, program = build("""
        associations
          parent = (par: string, chil: string).
          anc = (a: string, d: string).
        rules
          anc(a X, d Y) <- parent(par X, chil Y).
          anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
        """)
        edb = random_edges(12, 20, seed=seed)
        fast = Engine(schema, program, EvalConfig())
        slow = Engine(schema, program, REFERENCE)
        assert fast.run(edb) == slow.run(edb)
        assert fast.stats.used_seminaive
        assert not slow.stats.used_seminaive

    def test_seminaive_declined_for_negation(self):
        schema, program = build("""
        associations
          edge = (a: string, b: string).
          one = (a: string).
        rules
          one(a X) <- edge(a X, b Y), ~edge(a Y, b X).
        """)
        engine = Engine(schema, program, EvalConfig())
        engine.run(edges(("x", "y")))
        assert not engine.stats.used_seminaive

    def test_seminaive_declined_for_class_heads(self):
        schema, program = build("""
        classes
          c = (tag: string).
        associations
          seed = (tag: string).
        rules
          c(tag X) <- seed(tag X).
        """)
        engine = Engine(schema, program, EvalConfig())
        edb = FactSet()
        edb.add_association("seed", TupleValue(tag="x"))
        engine.run(edb)
        assert not engine.stats.used_seminaive

    def test_seminaive_declined_for_function_reads(self):
        schema, program = build("""
        associations
          parent = (par: string, chil: string).
          fan = (who: string, kids: {string}).
        functions
          kids: string -> {string}.
          member(X, kids(Y)) <- parent(par Y, chil X).
        rules
          fan(who X, kids K) <- parent(par X), K = kids(X).
        """)
        engine = Engine(schema, program, EvalConfig())
        edb = FactSet()
        edb.add_association("parent", TupleValue(par="a", chil="b"))
        result = engine.run(edb, Semantics.STRATIFIED)
        # the positive __fn_kids stratum qualifies; the stratum whose
        # builtin reads kids(X) keeps the general path
        strata = stratify_runtimes(engine._head_rules(), engine.analysis)
        assert [
            [r.rule.head.pred for r in stratum] for stratum in strata
        ] == [["__fn_kids"], ["fan"]]
        assert not engine._seminaive_applicable(strata[1])
        naive = Engine(schema, program, REFERENCE)
        assert result == naive.run(edb, Semantics.STRATIFIED)


class TestModesAreParametric:
    def test_same_program_three_semantics_three_calls(self):
        """One Engine instance supports all semantics — the module system
        relies on this to make databases parametric in rule semantics."""
        schema, program = build("""
        associations
          edge = (a: string, b: string).
          tc = (a: string, b: string).
        rules
          tc(a X, b Y) <- edge(a X, b Y).
          tc(a X, b Z) <- edge(a X, b Y), tc(a Y, b Z).
        """)
        engine = Engine(schema, program)
        edb = edges(("x", "y"), ("y", "z"))
        results = [
            engine.run(edb, semantics)
            for semantics in (
                Semantics.INFLATIONARY,
                Semantics.STRATIFIED,
                Semantics.NONINFLATIONARY,
            )
        ]
        assert results[0] == results[1] == results[2]

"""Per-stratum semi-naive evaluation, pinned to the reference kernel.

Under stratified semantics a stratum runs on the semi-naive delta
driver when its rules have positive association heads, no oid
invention, no active-domain variables and no data-function reads, and
every negated literal reads a predicate the stratum does not define.  A
scope that reads none of its own predicates, deletes nothing and whose
class heads all invent their oids stops after one round.  The
properties:

* random stratified programs — negation over lower strata with bound
  and with active-domain variables, positive recursion, non-recursive
  inventing strata, bound-oid class heads — evaluate under every fast
  configuration to exactly the reference kernel's instance
  (:data:`tests.kernels.REFERENCE`, ``EvalConfig(incremental=False)``), or
  to an isomorphic one when the program invents oids; a run that fails
  fails with the same error in both;
* the same for inflationary programs whose negations read only
  predicates no rule defines;
* a scope mixing compiled rules with one outside the compile fragment
  (a tuple-variable copy) runs both kinds in the same semi-naive
  rounds, with the reference kernel's instance and iteration count;
* two bound-oid heads that overwrite one o-value in turn still
  oscillate to :class:`~repro.errors.NonTerminationError`;
* the iteration budget counts per stratum, as on the general path.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine, EvalConfig, FactSet, Semantics, parse_source
from repro.engine.guards import ResourceGuard
from repro.errors import EvalBudgetExceeded, LogresError, NonTerminationError
from repro.values import Oid, TupleValue
from tests.kernels import REFERENCE as SPECIFICATION

NODES = [f"n{i}" for i in range(6)]
LIMITS = dict(max_iterations=60, guard=ResourceGuard(max_facts=20_000))
REFERENCE = dataclasses.replace(SPECIFICATION, **LIMITS)
FAST = {
    "default": EvalConfig(**LIMITS),
    "unplanned": EvalConfig(plan=False, **LIMITS),
}

#: one rule group per shape; ``P`` is the defined predicate, ``S`` and
#: ``T`` read lower predicates, ``L`` is read under negation
SHAPES = {
    "copy": ["P(X, Y) <- S(X, Y)."],
    "join": ["P(X, Z) <- S(X, Y), e(a Y, b Z)."],
    "filter": ["P(X, Y) <- S(X, Y), X != Y."],
    "closure": ["P(X, Y) <- S(X, Y).",
                "P(X, Z) <- S(X, Y), P(Y, Z)."],
    # bound negation over a lower stratum, in a recursive stratum
    "closure_neg": ["P(X, Y) <- S(X, Y), ~L(Y, X).",
                    "P(X, Z) <- P(X, Y), T(Y, Z), ~L(X, Z)."],
    # an active-domain variable W under negation
    "closure_ad": ["P(X, Y) <- S(X, Y).",
                   "P(X, Z) <- P(X, Y), T(Y, Z), ~L(Z, W)."],
    "neg_mark": ["P(X, Y) <- S(X, Y), ~mark(a Y)."],
    # oid invention: one or two inventing rules into one class
    "invent": ["P(X, Y) <- S(X, Y)."],
    "invent2": ["P(X, Y) <- S(X, Y).",
                "P(Y, X) <- T(X, Y), ~L(X, Y)."],
    # bound-oid class heads: one reads its own class, one does not
    "tag": ["P(self O, note X) <- P(self O, name X), S(X, Y)."],
    "pick": ['P(self O, note "seen") <- pick(item O), S(X, Y).'],
    # a tuple-variable copy, outside the compile fragment, beside a
    # compiled recursive rule: the scope mixes generic and compiled
    "tuple_copy": ["P(T) <- S(T).",
                   "P(X, Z) <- P(X, Y), T(Y, Z)."],
}
CLASS_SHAPES = {"invent": "o", "invent2": "o", "tag": "t", "pick": "t"}


def atom(pred: str, x: str, y: str) -> str:
    """``pred`` over two terms; ``t`` classes use ``name``/``note``."""
    if pred.startswith("t"):
        return f"{pred}(name {x}, note {y})"
    return f"{pred}(a {x}, b {y})"


#: ``P(X, Y)``-style placeholders of a shape template
PLACEHOLDER = re.compile(r"(?<!\w)([PSTL])\((\w+), (\w+)\)")
#: ``P(T)``-style tuple-variable placeholders
TUPLE_PLACEHOLDER = re.compile(r"(?<!\w)([PS])\(T\)")


def render(template: str, pred: str, src: str, second: str,
           low: str) -> str:
    """One rule of a shape with its predicates substituted."""
    roles = {"P": pred, "S": src, "T": second, "L": low}
    rule = PLACEHOLDER.sub(
        lambda m: atom(roles[m.group(1)], m.group(2), m.group(3)), template)
    # a tuple variable over a class binds an object, which the typing
    # rejects at an association head: such a copy reads ``e`` instead
    rule = TUPLE_PLACEHOLDER.sub(
        lambda m: ("e" if roles[m.group(1)][0] in "ot"
                   else roles[m.group(1)]) + "(T)", rule)
    return rule.replace("P(self", f"{pred}(self").replace(
        "pick(", f"pick{pred[1:]}(")


@st.composite
def programs(draw, edb_negation_only: bool = False):
    """``(source, classes)``: a random stratified program over ``e`` and
    ``mark``.  Predicate ``i`` reads only ``e``, ``mark`` and
    predicates ``< i`` (and itself), so every program is stratified.
    ``classes`` lists the ``t`` classes whose objects the EDB needs."""
    count = draw(st.integers(1, 5))
    decls, classes, rules = [], [], []
    defined: list[str] = []
    for i in range(count):
        shape = draw(st.sampled_from(sorted(SHAPES)))
        prefix = CLASS_SHAPES.get(shape, "r")
        pred = f"{prefix}{i}"
        readable = ["e"] + defined
        src = draw(st.sampled_from(readable))
        second = draw(st.sampled_from(readable))
        low = "e" if edb_negation_only else draw(st.sampled_from(readable))
        if prefix == "t":
            decls.append(("class", f"  {pred} = (name: string,"
                                   f" note: string)."))
            decls.append(("assoc", f"  pick{i} = (item: {pred})."))
            classes.append(pred)
        elif prefix == "o":
            decls.append(("class", f"  {pred} = (a: string, b: string)."))
        else:
            decls.append(("assoc", f"  {pred} = (a: string, b: string)."))
        rules.extend(render(t, pred, src, second, low)
                     for t in SHAPES[shape])
        defined.append(pred)
    source = "\n".join(
        ["classes"] + [d for k, d in decls if k == "class"]
        + ["associations", "  e = (a: string, b: string).",
           "  mark = (a: string)."]
        + [d for k, d in decls if k == "assoc"]
        + ["rules"] + [f"  {r}" for r in rules]
    )
    return source, classes


@st.composite
def databases(draw, classes: list[str]) -> FactSet:
    edb = FactSet()
    pairs = draw(st.lists(st.tuples(st.sampled_from(NODES),
                                    st.sampled_from(NODES)), max_size=10))
    for a, b in pairs:
        edb.add_association("e", TupleValue(a=a, b=b))
    for node in draw(st.sets(st.sampled_from(NODES), max_size=3)):
        edb.add_association("mark", TupleValue(a=node))
    for number, pred in enumerate(classes):
        index = pred[1:]
        names = draw(st.sets(st.sampled_from(NODES), min_size=1,
                             max_size=3))
        for k, name in enumerate(sorted(names)):
            oid = Oid(100 + 10 * number + k)
            edb.add_object(pred, oid, TupleValue(name=name))
            if draw(st.booleans()):
                edb.add_association(f"pick{index}", TupleValue(item=oid))
    return edb


def outcome(schema, program, edb, semantics, config):
    engine = Engine(schema, program, config)
    try:
        return "ok", engine.run(edb.copy(), semantics)
    except LogresError as exc:
        return "error", type(exc).__name__


def assert_matches_reference(source, edb, semantics) -> None:
    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    invents = Engine(schema, program).analysis.has_invention
    want = outcome(schema, program, edb, semantics, REFERENCE)
    for name, config in FAST.items():
        got = outcome(schema, program, edb, semantics, config)
        context = (name, semantics, source)
        assert got[0] == want[0], (context, got, want)
        if got[0] == "error" or not invents:
            assert got[1] == want[1], context
        else:  # equal up to the renaming of invented oids
            assert got[1].to_instance().isomorphic_to(
                want[1].to_instance()), context


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stratified_programs_match_the_reference_kernel(data):
    source, classes = data.draw(programs())
    edb = data.draw(databases(classes))
    assert_matches_reference(source, edb, Semantics.STRATIFIED)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inflationary_negation_over_edb_matches_the_reference_kernel(data):
    source, classes = data.draw(programs(edb_negation_only=True))
    edb = data.draw(databases(classes))
    assert_matches_reference(source, edb, Semantics.INFLATIONARY)


# ---------------------------------------------------------------------------
# targeted cases
# ---------------------------------------------------------------------------
def build(source):
    unit = parse_source(source)
    return unit.schema(), unit.program()


def edges(pred, *pairs) -> FactSet:
    edb = FactSet()
    for a, b in pairs:
        edb.add_association(pred, TupleValue(a=a, b=b))
    return edb


def run(schema, program, edb, semantics, config):
    engine = Engine(schema, program, config)
    return engine.run(edb.copy(), semantics), engine.stats


SAFE = """
associations
  e = (a: string, b: string).
  mark = (a: string).
  bad = (a: string).
  safe = (a: string, b: string).
rules
  bad(a Y) <- e(a X, b Y), mark(a X).
  safe(a X, b Y) <- e(a X, b Y), ~bad(a Y).
  safe(a X, b Z) <- safe(a X, b Y), e(a Y, b Z), ~bad(a Z).
"""


@pytest.mark.parametrize("config", sorted(FAST))
def test_a_recursive_stratum_over_negation_runs_semi_naive(config):
    """Same instance and same iteration count as the reference: the
    delta rounds derive exactly what each general round derives."""
    schema, program = build(SAFE)
    edb = edges("e", *[(f"n{i}", f"n{i + 1}") for i in range(8)],
                ("n2", "n7"))
    edb.add_association("mark", TupleValue(a="n4"))
    got, stats = run(schema, program, edb, Semantics.STRATIFIED,
                     FAST[config])
    want, reference = run(schema, program, edb, Semantics.STRATIFIED,
                          REFERENCE)
    assert stats.used_seminaive and not reference.used_seminaive
    assert got == want
    assert stats.iterations == reference.iterations
    assert TupleValue(a="n0", b="n5") not in {
        f.value for f in got.facts_of("safe")}


INVENT = """
classes
  obj = (a: string, b: string).
associations
  e = (a: string, b: string).
  mark = (a: string).
  seen = (a: string, b: string).
rules
  obj(a X, b Y) <- e(a X, b Y), ~mark(a X).
  obj(a Y, b X) <- e(a X, b Y).
"""
SEEN = "  seen(a X, b Y) <- obj(a X, b Y).\n"


@pytest.mark.parametrize("semantics,source", [
    (Semantics.INFLATIONARY, INVENT),
    # the inventing stratum stops after one round, ``seen`` above it
    # runs semi-naive
    (Semantics.STRATIFIED, INVENT + SEEN),
], ids=["inflationary", "stratified"])
def test_a_non_recursive_inventing_scope_stops_after_one_round(semantics,
                                                               source):
    schema, program = build(source)
    edb = edges("e", ("x", "y"), ("y", "z"), ("z", "x"))
    edb.add_association("mark", TupleValue(a="y"))
    got, stats = run(schema, program, edb, semantics, FAST["default"])
    want, reference = run(schema, program, edb, semantics, REFERENCE)
    assert got.to_instance().isomorphic_to(want.to_instance())
    assert got.count("obj") == want.count("obj") == 5
    # the inventing scope saves its second, empty round
    assert stats.iterations == reference.iterations - 1


@pytest.mark.parametrize("config", ["reference"] + sorted(FAST))
def test_a_one_round_scope_keeps_the_guard_check_of_its_second_round(
        config):
    """The reference kernel meets the live-fact budget at the boundary
    of the second round; a scope that skips that round still checks."""
    schema, program = build(INVENT)
    edb = edges("e", ("x", "y"), ("y", "z"), ("z", "x"))
    base = REFERENCE if config == "reference" else FAST[config]
    guarded = EvalConfig(**{**vars(base),
                            "guard": ResourceGuard(max_facts=6)})
    with pytest.raises(EvalBudgetExceeded):
        Engine(schema, program, guarded).run(edb,
                                             Semantics.INFLATIONARY)


OSCILLATE = """
classes
  thing = (name: string, note: string).
associations
  pick = (item: thing).
rules
  thing(self X, note "left") <- pick(item X).
  thing(self X, note "right") <- pick(item X).
"""


@pytest.mark.parametrize("semantics", [Semantics.INFLATIONARY,
                                       Semantics.STRATIFIED])
@pytest.mark.parametrize("config", ["reference"] + sorted(FAST))
def test_bound_oid_heads_overwriting_in_turn_oscillate(semantics, config):
    """The heads read no predicate of their scope, but their oid is
    bound: the scope keeps its second round, and the o-value flips
    between the two notes until the budget runs out."""
    schema, program = build(OSCILLATE)
    edb = FactSet()
    edb.add_object("thing", Oid(1), TupleValue(name="t"))
    edb.add_association("pick", TupleValue(item=Oid(1)))
    chosen = REFERENCE if config == "reference" else FAST[config]
    with pytest.raises(NonTerminationError):
        Engine(schema, program, chosen).run(edb, semantics)


BUDGET = """
associations
  e = (a: string, b: string).
  f = (a: string, b: string).
  tc = (a: string, b: string).
  up = (a: string, b: string).
rules
  tc(a X, b Y) <- e(a X, b Y).
  tc(a X, b Z) <- e(a X, b Y), tc(a Y, b Z).
  up(a X, b Y) <- tc(a X, b Y).
  up(a X, b Z) <- up(a X, b Y), f(a Y, b Z).
"""


@pytest.mark.parametrize("config", ["reference"] + sorted(FAST))
def test_the_iteration_budget_is_per_stratum(config):
    """Two positive strata of 7 productive rounds each: 8 iterations
    per stratum suffice (15 in all), 7 do not."""
    schema, program = build(BUDGET)
    edb = edges("e", *[(f"n{i}", f"n{i + 1}") for i in range(6)])
    for i in range(6, 12):
        edb.add_association("f", TupleValue(a=f"n{i}", b=f"n{i + 1}"))
    base = REFERENCE if config == "reference" else FAST[config]

    def with_budget(budget):
        return EvalConfig(**{**vars(base), "max_iterations": budget})

    got, stats = run(schema, program, edb, Semantics.STRATIFIED,
                     with_budget(8))
    assert stats.strata == 2 and stats.iterations == 15
    assert got.count("up") == 6 * 7 // 2 + 6 * 6
    with pytest.raises(NonTerminationError):
        run(schema, program, edb, Semantics.STRATIFIED, with_budget(7))


def test_a_head_reading_a_data_function_keeps_the_general_path():
    """Under inflationary semantics the function's set grows while the
    head reads it, so each round's head value differs: the semi-naive
    rounds would miss the later ones."""
    schema, program = build("""
    associations
      parent = (par: string, chil: string).
      fan = (who: string, kids: {string}).
    functions
      kids: string -> {string}.
      member(X, kids(Y)) <- parent(par Y, chil X).
    rules
      fan(who X, kids kids(X)) <- parent(par X).
    """)
    edb = FactSet()
    for par, chil in (("a", "b"), ("a", "c"), ("c", "d")):
        edb.add_association("parent", TupleValue(par=par, chil=chil))
    for semantics in (Semantics.INFLATIONARY, Semantics.STRATIFIED):
        got, _ = run(schema, program, edb, semantics, FAST["default"])
        want, _ = run(schema, program, edb, semantics, REFERENCE)
        assert got == want


def test_an_active_domain_variable_keeps_the_general_path():
    """``W`` ranges over every string in the instance.  The value
    ``"zz"`` enters it in round 2, and only then does ``~full(a y, b
    W)`` hold: the valuation through the old facts ``p(s, x)`` and
    ``e(x, y)`` first succeeds in round 3, which no delta fact seeds."""
    schema, program = build("""
    associations
      e = (a: string, b: string).
      full = (a: string, b: string).
      p = (a: string, b: string).
    rules
      p(a X, b Y) <- e(a X, b Y).
      p(a X, b "zz") <- p(a X, b Y), e(a Y, b "end").
      p(a X, b Z) <- p(a X, b Y), e(a Y, b Z), ~full(a Z, b W).
    """)
    edb = edges("e", ("s", "x"), ("x", "y"), ("y", "end"))
    for value in ("s", "x", "y", "end"):
        edb.add_association("full", TupleValue(a="y", b=value))
    for semantics in (Semantics.INFLATIONARY, Semantics.STRATIFIED):
        want, _ = run(schema, program, edb, semantics, REFERENCE)
        assert TupleValue(a="s", b="y") in {
            f.value for f in want.facts_of("p")}
        for config in FAST.values():
            got, _ = run(schema, program, edb, semantics, config)
            assert got == want


REACH_PAIR = """
associations
  edge = (src: string, dst: string).
  reach = (src: string, dst: string).
  pair = (p: (src: string, dst: string)).
rules
  reach(src X, dst Y) <- edge(src X, dst Y).
  reach(src X, dst Z) <- edge(src X, dst Y), reach(src Y, dst Z).
  pair(p T) <- edge(T).
"""


@pytest.mark.parametrize("semantics", [Semantics.INFLATIONARY,
                                       Semantics.STRATIFIED])
def test_a_scope_mixing_compiled_and_generic_rules_runs_semi_naive(
        semantics, monkeypatch):
    """The tuple-variable rule is outside the compile fragment: it runs
    the generic body evaluator, while the reach rules keep their
    compiled bodies and seed chains in the same semi-naive rounds."""
    from repro.engine import compile as compile_module

    real = compile_module.compile_rule
    compiled_heads, seeded = [], []

    def counting(runtime, plan, schema):
        compiled = real(runtime, plan, schema)
        if compiled is not None:
            compiled_heads.append(runtime.rule.head.pred)
            for pos, chain in list(compiled.seed_chains.items()):
                def seed(fact, regs, ctx, emit, chain=chain):
                    seeded.append(fact.pred)
                    chain(fact, regs, ctx, emit)
                compiled.seed_chains[pos] = seed
        return compiled

    monkeypatch.setattr(compile_module, "compile_rule", counting)
    schema, program = build(REACH_PAIR)
    edb = FactSet()
    for i in range(10):
        edb.add_association("edge", TupleValue(src=f"n{i}",
                                               dst=f"n{i + 1}"))
    got, stats = run(schema, program, edb, semantics, FAST["default"])
    want, reference = run(schema, program, edb, semantics, REFERENCE)
    assert stats.used_seminaive
    assert sorted(compiled_heads) == ["reach", "reach"]
    # one seed per delta fact of ``reach``, from the second round on
    assert seeded and set(seeded) == {"reach"}
    assert got == want
    assert got.count("reach") == 10 * 11 // 2 and got.count("pair") == 10
    assert stats.iterations == reference.iterations

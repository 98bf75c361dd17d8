"""Property-based tests (hypothesis) on core invariants.

Covered properties:

* complex values — tuple merge/project laws, multiset union counts,
  set-operation algebra;
* refinement — reflexivity on closed descriptors, transitivity on
  sampled triples;
* fact sets — ``⊕`` associativity and right bias, minus/intersection
  laws;
* serialization — value / fact-set / rule round-trips;
* engine — LOGRES evaluation of random positive flat programs agrees
  with the independent Datalog baseline; semi-naive agrees with the
  reference kernel;
  determinacy up to oid renaming on the invention fragment;
* powerset — |power(R)| = 2^|R| for random small relations.
"""

from hypothesis import given, settings, strategies as st

from repro import (
    Database,
    Engine,
    EvalConfig,
    FactSet,
    MultisetValue,
    SequenceValue,
    SetValue,
    TupleValue,
    parse_source,
)
from repro.datalog import Atom, DVar, DatalogEngine, DatalogRule
from repro.storage import Fact
from repro.storage.persist import (
    decode_factset,
    decode_value,
    encode_factset,
    encode_value,
)
from repro.types import SchemaBuilder, is_refinement
from repro.types.descriptors import (
    INTEGER,
    STRING,
    MultisetType,
    SequenceType,
    SetType,
    TupleField,
    TupleType,
)
from repro.values import Oid
from tests.kernels import REFERENCE

# ---------------------------------------------------------------------------
# value strategies
# ---------------------------------------------------------------------------
scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcxyz", max_size=4),
    st.booleans(),
    st.builds(Oid, st.integers(min_value=0, max_value=20)),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.builds(SetValue, st.frozensets(children, max_size=3)),
        st.builds(MultisetValue, st.lists(children, max_size=3)),
        st.builds(SequenceValue, st.lists(children, max_size=3)),
        st.builds(
            TupleValue,
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]), children, max_size=3
            ),
        ),
    ),
    max_leaves=8,
)

label_sets = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), scalars, max_size=4
)


class TestValueProperties:
    @given(label_sets, label_sets)
    def test_tuple_merge_right_bias(self, left, right):
        merged = TupleValue(left).merged(TupleValue(right))
        for key, val in right.items():
            assert merged[key] == val
        for key, val in left.items():
            if key not in right:
                assert merged[key] == val

    @given(label_sets)
    def test_project_then_labels_subset(self, fields):
        t = TupleValue(fields)
        p = t.project(["a", "b"])
        assert set(p.labels) <= {"a", "b"}
        for label in p.labels:
            assert p[label] == t[label]

    @given(st.lists(scalars, max_size=6), st.lists(scalars, max_size=6))
    def test_multiset_union_counts_add(self, xs, ys):
        union = MultisetValue(xs).union(MultisetValue(ys))
        for v in set(xs) | set(ys):
            assert union.multiplicity(v) == xs.count(v) + ys.count(v)

    @given(st.frozensets(scalars, max_size=6),
           st.frozensets(scalars, max_size=6))
    def test_set_algebra(self, xs, ys):
        a, b = SetValue(xs), SetValue(ys)
        assert a.union(b).elements == xs | ys
        assert a.intersection(b).elements == xs & ys
        assert a.difference(b).elements == xs - ys

    @given(values)
    def test_values_are_hashable_and_self_equal(self, value):
        assert hash(value) == hash(value)
        assert value == value


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------
closed_types = st.recursive(
    st.sampled_from([INTEGER, STRING]),
    lambda children: st.one_of(
        st.builds(SetType, children),
        st.builds(MultisetType, children),
        st.builds(SequenceType, children),
        st.builds(
            lambda fields: TupleType(tuple(
                TupleField(label, t) for label, t in fields.items()
            )),
            st.dictionaries(
                st.sampled_from(["a", "b", "c"]), children,
                min_size=0, max_size=3,
            ),
        ),
    ),
    max_leaves=6,
)

_EMPTY_SCHEMA = SchemaBuilder().build()


class TestRefinementProperties:
    @given(closed_types)
    def test_reflexive_on_closed_descriptors(self, t):
        assert is_refinement(t, t, _EMPTY_SCHEMA)

    @given(closed_types, closed_types, closed_types)
    @settings(max_examples=60)
    def test_transitive(self, t1, t2, t3):
        if is_refinement(t1, t2, _EMPTY_SCHEMA) and \
                is_refinement(t2, t3, _EMPTY_SCHEMA):
            assert is_refinement(t1, t3, _EMPTY_SCHEMA)

    @given(closed_types, closed_types)
    def test_width_extension_refines(self, t1, t2):
        wide = TupleType((TupleField("x", t1), TupleField("y", t2)))
        narrow = TupleType((TupleField("x", t1),))
        assert is_refinement(wide, narrow, _EMPTY_SCHEMA)


# ---------------------------------------------------------------------------
# fact sets
# ---------------------------------------------------------------------------
fact_strategy = st.one_of(
    st.builds(
        lambda pred, fields: Fact(pred, TupleValue(fields)),
        st.sampled_from(["p", "q"]),
        label_sets,
    ),
    st.builds(
        lambda pred, oid, fields: Fact(pred, TupleValue(fields), Oid(oid)),
        st.sampled_from(["c", "d"]),
        st.integers(min_value=1, max_value=6),
        label_sets,
    ),
)

factsets = st.builds(FactSet.from_facts,
                     st.lists(fact_strategy, max_size=8))


class TestFactSetProperties:
    @given(factsets, factsets, factsets)
    @settings(max_examples=60)
    def test_compose_associative(self, a, b, c):
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    @given(factsets, factsets)
    def test_compose_right_bias(self, a, b):
        merged = a.compose(b)
        for fact in b.facts():
            assert fact in merged

    @given(factsets, factsets)
    def test_minus_then_disjoint(self, a, b):
        left = a.minus(b)
        for fact in left.facts():
            assert fact not in b

    @given(factsets, factsets)
    def test_intersection_subset_of_both(self, a, b):
        inter = a.intersection(b)
        for fact in inter.facts():
            assert fact in a and fact in b

    @given(factsets)
    def test_serialization_roundtrip(self, facts):
        assert decode_factset(encode_factset(facts)) == facts


class TestValueSerializationProperty:
    @given(values)
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value


# ---------------------------------------------------------------------------
# engine vs the independent Datalog baseline
# ---------------------------------------------------------------------------
EDGE_SOURCE = """
associations
  e = (a: integer, b: integer).
  t = (a: integer, b: integer).
rules
  t(a X, b Y) <- e(a X, b Y).
  t(a X, b Z) <- e(a X, b Y), t(a Y, b Z).
"""

edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=7)),
    max_size=14,
)


class TestEngineAgreesWithBaseline:
    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_transitive_closure_matches_datalog(self, edges):
        unit = parse_source(EDGE_SOURCE)
        schema, program = unit.schema(), unit.program()
        edb = FactSet()
        for a, b in edges:
            edb.add_association("e", TupleValue(a=a, b=b))
        logres = Engine(schema, program,
                        EvalConfig(max_iterations=500)).run(edb)
        got = {(f.value["a"], f.value["b"]) for f in logres.facts_of("t")}

        X, Y, Z = DVar("X"), DVar("Y"), DVar("Z")
        baseline = DatalogEngine([
            DatalogRule(Atom("t", X, Y), (Atom("e", X, Y),)),
            DatalogRule(Atom("t", X, Z),
                        (Atom("e", X, Y), Atom("t", Y, Z))),
        ]).seminaive({("e", pair) for pair in edges})
        expected = {args for pred, args in baseline if pred == "t"}
        assert got == expected

    @given(edge_lists)
    @settings(max_examples=25, deadline=None)
    def test_seminaive_equals_naive(self, edges):
        unit = parse_source(EDGE_SOURCE)
        schema, program = unit.schema(), unit.program()
        edb = FactSet()
        for a, b in edges:
            edb.add_association("e", TupleValue(a=a, b=b))
        fast = Engine(schema, program, EvalConfig())
        slow = Engine(schema, program, REFERENCE)
        assert fast.run(edb) == slow.run(edb)


class TestDeterminacyProperty:
    @given(st.lists(st.tuples(st.sampled_from("abcd"),
                              st.sampled_from("wxyz")),
                    min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_invention_runs_isomorphic(self, pairs):
        source = """
        classes
          link = (l: string, r: string).
        associations
          raw = (l: string, r: string).
        rules
          link(l X, r Y) <- raw(l X, r Y).
        """
        unit = parse_source(source)
        schema, program = unit.schema(), unit.program()
        edb = FactSet()
        for l, r in pairs:
            edb.add_association("raw", TupleValue(l=l, r=r))
        from repro.values import OidGenerator

        run1 = Engine(schema, program).run(edb).to_instance()
        run2 = Engine(schema, program,
                      oidgen=OidGenerator(start=1000)).run(edb)
        assert run1.isomorphic_to(run2.to_instance())


class TestPowersetProperty:
    @given(st.frozensets(st.integers(min_value=0, max_value=9),
                         max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_cardinality(self, elements):
        db = Database.from_source("""
        associations
          r = (d: integer).
          power = (s: {integer}).
        rules
          power(s X) <- X = {}.
          power(s X) <- r(d Y), append({}, Y, X).
          power(s X) <- power(s Y), power(s Z), union(Y, Z, X).
        """)
        for i in elements:
            db.insert("r", d=i)
        assert len(db.tuples("power")) == 2 ** len(elements)


# ---------------------------------------------------------------------------
# compiled ALGRES plans vs the native engine on random programs
# ---------------------------------------------------------------------------
class TestCompilerDifferential:
    """Random compilable programs: the ALGRES route must agree with the
    native engine fact-for-fact."""

    @given(
        edge_lists,
        st.lists(st.sampled_from(["copy", "swap", "join", "filter",
                                  "shift"]),
                 min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_programs_agree(self, edges, shapes):
        from repro.compiler import compile_program

        rules = []
        for i, shape in enumerate(shapes):
            out = f"out{i}"
            if shape == "copy":
                rules.append(
                    f"{out}(a X, b Y) <- e(a X, b Y)."
                )
            elif shape == "swap":
                rules.append(
                    f"{out}(a Y, b X) <- e(a X, b Y)."
                )
            elif shape == "join":
                rules.append(
                    f"{out}(a X, b Z) <- e(a X, b Y), e(a Y, b Z)."
                )
            elif shape == "filter":
                rules.append(
                    f"{out}(a X, b Y) <- e(a X, b Y), X < Y."
                )
            else:  # shift
                rules.append(
                    f"{out}(a X, b Z) <- e(a X, b Y), Z = Y + 1."
                )
        decls = "\n".join(
            f"  out{i} = (a: integer, b: integer)."
            for i in range(len(shapes))
        )
        source = (
            "associations\n  e = (a: integer, b: integer).\n"
            + decls + "\nrules\n  " + "\n  ".join(rules)
        )
        unit = parse_source(source)
        schema, program = unit.schema(), unit.program()
        edb = FactSet()
        for a, b in edges:
            edb.add_association("e", TupleValue(a=a, b=b))
        compiled = compile_program(program, schema)
        assert compiled.run(edb) == Engine(schema, program).run(edb)


class TestCompilerNegationDifferential:
    """Random programs with bound-variable negation: compiled anti-joins
    must agree with the native STRATIFIED engine."""

    @given(edge_lists)
    @settings(max_examples=25, deadline=None)
    def test_antijoin_agrees_with_stratified(self, edges):
        from repro import Semantics
        from repro.compiler import compile_program

        unit = parse_source("""
        associations
          e = (a: integer, b: integer).
          asym = (a: integer, b: integer).
          source = (a: integer).
        rules
          asym(a X, b Y) <- e(a X, b Y), ~e(a Y, b X).
          source(a X) <- e(a X, b Y), ~e(b X).
        """)
        schema, program = unit.schema(), unit.program()
        edb = FactSet()
        for a, b in edges:
            edb.add_association("e", TupleValue(a=a, b=b))
        compiled = compile_program(program, schema, optimize_plans=True)
        native = Engine(schema, program).run(edb, Semantics.STRATIFIED)
        assert compiled.run(edb) == native


class TestParserRobustness:
    """The parser must fail *cleanly* (ParseError) on arbitrary input —
    never with an internal exception."""

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_random_text_never_crashes(self, text):
        from repro.errors import LogresError

        try:
            parse_source(text)
        except LogresError:
            pass  # ParseError / SchemaError etc. are the contract

    @given(st.text(
        alphabet="abcXYZ(){}<>[]=~.,:\"% \n0123456789",
        max_size=120,
    ))
    @settings(max_examples=150, deadline=None)
    def test_syntax_shaped_noise_never_crashes(self, text):
        from repro.errors import LogresError

        try:
            parse_source("rules\n" + text)
        except LogresError:
            pass

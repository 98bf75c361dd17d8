"""Engine tests: oid invention (Appendix B, Definition 8b)."""

import pytest

from repro import (
    Engine,
    EvalConfig,
    FactSet,
    Oid,
    ResourceGuard,
    Semantics,
    TupleValue,
)
from repro.errors import NonTerminationError
from repro.language.parser import parse_source


def build(text):
    unit = parse_source(text)
    return unit.schema(), unit.program()


IP_SOURCE = """
classes
  ip = (emp: string, mgr: string).
associations
  emp = (ename: string, nm: string, works: string).
  dept = (dname: string, depmgr: string).
rules
  ip(emp E, mgr M) <- emp(ename E, nm N, works D),
                      dept(dname D, depmgr M), emp(ename M, nm N).
"""


def ip_edb():
    edb = FactSet()
    rows = [
        ("e1", "smith", "d1"),
        ("m1", "smith", "d9"),
        ("e2", "jones", "d1"),
        ("m2", "jones", "d2"),
        ("e3", "jones", "d2"),
    ]
    for e, n, w in rows:
        edb.add_association("emp", TupleValue(ename=e, nm=n, works=w))
    edb.add_association("dept", TupleValue(dname="d1", depmgr="m1"))
    edb.add_association("dept", TupleValue(dname="d2", depmgr="m2"))
    return edb


class TestInterestingPairs:
    def test_one_object_per_distinct_pair(self):
        """The IP example (Section 3.1): one invented object per
        (employee, manager) combination, existentially quantified."""
        schema, program = build(IP_SOURCE)
        engine = Engine(schema, program)
        out = engine.run(ip_edb())
        created = sorted(
            (f.value["emp"], f.value["mgr"]) for f in out.facts_of("ip")
        )
        assert created == [("e1", "m1"), ("e3", "m2"), ("m2", "m2")]
        assert engine.stats.inventions == 3

    def test_invention_is_stable_across_steps(self):
        """Once a rule fired for a substitution, it never re-invents
        (Def. 8b uniqueness): the fixpoint has exactly one oid per pair
        even though the body stays satisfiable every step."""
        schema, program = build(IP_SOURCE)
        engine = Engine(schema, program)
        out = engine.run(ip_edb())
        assert len(out.oids_of("ip")) == 3

    def test_runs_are_isomorphic(self):
        """Determinacy: two evaluations agree up to oid renaming."""
        schema, program = build(IP_SOURCE)
        a = Engine(schema, program).run(ip_edb()).to_instance()
        from repro.values import OidGenerator

        b_engine = Engine(schema, program,
                          oidgen=OidGenerator(start=500))
        b = b_engine.run(ip_edb()).to_instance()
        assert a.isomorphic_to(b)
        # and genuinely different oids were used
        assert {o.number for o in a.all_oids()} != \
            {o.number for o in b.all_oids()}


class TestInventionMechanics:
    def test_invented_oids_avoid_existing_ones(self):
        schema, program = build("""
        classes
          c = (tag: string).
        associations
          seed = (tag: string).
        rules
          c(tag X) <- seed(tag X).
        """)
        edb = FactSet()
        edb.add_object("c", Oid(10), TupleValue(tag="old"))
        edb.add_association("seed", TupleValue(tag="new"))
        out = Engine(schema, program).run(edb)
        fresh = out.oids_of("c") - {Oid(10)}
        assert len(fresh) == 1
        assert next(iter(fresh)).number > 10

    def test_no_reinvention_when_attributes_exist(self):
        """Def. 7's existential head check: if an object with matching
        attributes already exists, the valuation is dropped."""
        schema, program = build("""
        classes
          c = (tag: string).
        associations
          seed = (tag: string).
        rules
          c(tag X) <- seed(tag X).
        """)
        edb = FactSet()
        edb.add_object("c", Oid(1), TupleValue(tag="x"))
        edb.add_association("seed", TupleValue(tag="x"))
        engine = Engine(schema, program)
        out = engine.run(edb)
        assert out.oids_of("c") == {Oid(1)}
        assert engine.stats.inventions == 0

    def test_isa_related_head_unifies_instead_of_inventing(self):
        """Section 3.1 case (b): C1(Y) <- C2(X) with C1 isa C2 unifies
        the oids rather than inventing."""
        schema, program = build("""
        classes
          person = (name: string).
          student = (person, school: string).
          student isa person.
        rules
          person(self S, name N) <- student(self S, name N).
        """)
        edb = FactSet()
        edb.add_object("student", Oid(1),
                       TupleValue(name="john", school="polimi"))
        engine = Engine(schema, program)
        out = engine.run(edb)
        assert out.oids_of("person") == {Oid(1)}
        assert engine.stats.inventions == 0

    def test_unrelated_classes_invent_new_objects(self):
        """Section 3.1 case (a): same hierarchy but no isa relation in
        either direction — a new object is created per source object."""
        schema, program = build("""
        classes
          animal = (name: string).
          cat = (animal, purr: string).
          dog = (animal, bark: string).
          cat isa animal.
          dog isa animal.
        rules
          dog(name N, bark "woof") <- cat(self S, name N).
        """)
        edb = FactSet()
        edb.add_object("cat", Oid(1), TupleValue(name="tom", purr="soft"))
        engine = Engine(schema, program)
        out = engine.run(edb)
        assert len(out.oids_of("dog")) == 1
        assert Oid(1) not in out.oids_of("dog")
        assert engine.stats.inventions == 1

    def test_invention_budget_enforced(self):
        # each new object seeds another invention: runaway creation
        schema, program = build("""
        classes
          c = (tag: integer).
        rules
          c(tag 0).
          c(tag Y) <- c(self S, tag X), Y = X + 1.
        """)
        engine = Engine(schema, program,
                        EvalConfig(guard=ResourceGuard(max_inventions=40)))
        with pytest.raises(NonTerminationError, match="invention"):
            engine.run(FactSet())

    def test_noninflationary_rejects_invention(self):
        schema, program = build(IP_SOURCE)
        engine = Engine(schema, program)
        with pytest.raises(Exception, match="invention"):
            engine.run(ip_edb(), Semantics.NONINFLATIONARY)

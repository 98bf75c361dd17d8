"""Differential property tests for the incremental fixpoint kernel.

``EvalConfig(incremental=True)`` runs semi-naive rounds where a scope
allows them and otherwise applies deltas in place
(:func:`repro.engine.step.apply_deltas_inplace`) with persistent indexes
and active domains; ``incremental=False`` is the copying reference
kernel (:data:`tests.kernels.REFERENCE`).  These tests pin the fast
kernels to the reference:

* 100 randomized flat rule programs (joins, recursion, filters,
  arithmetic, negation, deletion heads over :mod:`repro.workloads`
  graph generators) must produce **bit-identical** fixpoints under the
  inflationary, stratified, and non-inflationary semantics — including
  identical failure behaviour when a run does not terminate;
* class-fact programs (o-value overwrites) must be bit-identical;
* oid-inventing programs must be isomorphic (oid numbering may depend on
  enumeration order, which the two kernels do not share).
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
from repro.errors import LogresError
from repro.observability import Instrumentation, MetricsRegistry
from repro.values import Oid, TupleValue
from repro.workloads import random_edges
from tests.kernels import REFERENCE

SEEDS = range(100)

MAX_ITERATIONS = 300

# ---------------------------------------------------------------------------
# randomized flat programs
# ---------------------------------------------------------------------------
SHAPES = ("copy", "swap", "join", "filter", "shift", "closure",
          "negation", "deletion")


def random_program(rng: random.Random):
    """A random flat program over ``e``; always stratifiable (each rule
    reads only ``e`` or lower-numbered ``out`` relations)."""
    shapes = rng.choices(SHAPES, k=rng.randint(2, 4))
    decls, rules = [], []
    for i, shape in enumerate(shapes):
        out = f"out{i}"
        decls.append(f"  {out} = (a: string, b: string).")
        prev = f"out{rng.randrange(i)}" if i and rng.random() < 0.4 else "e"
        if shape == "copy":
            rules.append(f"{out}(a X, b Y) <- {prev}(a X, b Y).")
        elif shape == "swap":
            rules.append(f"{out}(a Y, b X) <- {prev}(a X, b Y).")
        elif shape == "join":
            rules.append(
                f"{out}(a X, b Z) <- {prev}(a X, b Y), e(a Y, b Z)."
            )
        elif shape == "filter":
            rules.append(f"{out}(a X, b Y) <- {prev}(a X, b Y), X < Y.")
        elif shape == "shift":
            rules.append(f"{out}(a X, b Z) <- {prev}(a X, b Y), Z = Y.")
        elif shape == "closure":
            rules.append(f"{out}(a X, b Y) <- {prev}(a X, b Y).")
            rules.append(
                f"{out}(a X, b Z) <- {prev}(a X, b Y), {out}(a Y, b Z)."
            )
        elif shape == "negation":
            rules.append(
                f"{out}(a X, b Y) <- {prev}(a X, b Y), ~e(a Y, b X)."
            )
        else:  # deletion head
            rules.append(
                f"~{out}(a X, b Y) <- {out}(a X, b Y), e(a Y, b X)."
            )
            rules.append(f"{out}(a X, b Y) <- {prev}(a X, b Y).")
    source = (
        "associations\n  e = (a: string, b: string).\n"
        + "\n".join(decls)
        + "\nrules\n  "
        + "\n  ".join(rules)
    )
    return source


def random_edb(rng: random.Random) -> FactSet:
    nodes = rng.randint(3, 8)
    edges = rng.randint(2, 12)
    return random_edges(nodes, edges, seed=rng.randrange(10_000),
                        acyclic=rng.random() < 0.7,
                        pred="e", a="a", b="b")


def outcome(schema, program, edb, semantics, incremental,
            instrumented=False):
    """Run one configuration; (status, payload) so that both kernels can
    be compared even when evaluation legitimately fails.  An enabled
    :class:`Instrumentation` keeps the incremental kernel off the
    semi-naive path, on the general in-place one."""
    config = dataclasses.replace(
        EvalConfig() if incremental else REFERENCE,
        max_iterations=MAX_ITERATIONS,
        guard=ResourceGuard(max_facts=50_000),
    )
    obs = Instrumentation(MetricsRegistry()) if instrumented else None
    engine = Engine(schema, program, config, instrumentation=obs)
    try:
        return "ok", engine.run(edb.copy(), semantics)
    except LogresError as exc:
        return "error", type(exc).__name__


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_reference(seed):
    rng = random.Random(seed)
    source = random_program(rng)
    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    for semantics in (
        Semantics.INFLATIONARY,
        Semantics.STRATIFIED,
        Semantics.NONINFLATIONARY,
    ):
        fast = outcome(schema, program, edb, semantics, incremental=True)
        slow = outcome(schema, program, edb, semantics, incremental=False)
        assert fast[0] == slow[0], (semantics, source, fast, slow)
        assert fast[1] == slow[1], (semantics, source)
    # the general (non-semi-naive) inflationary path, in place vs copying
    fast = outcome(schema, program, edb, Semantics.INFLATIONARY,
                   incremental=True, instrumented=True)
    slow = outcome(schema, program, edb, Semantics.INFLATIONARY,
                   incremental=False)
    assert fast[0] == slow[0] and fast[1] == slow[1], source


# ---------------------------------------------------------------------------
# class facts: o-value overwrites through the in-place kernel
# ---------------------------------------------------------------------------
CLASS_SOURCE = """
classes
  c = (name: string, tag: string).
associations
  e = (a: string, b: string).
rules
  c(self S, tag X) <- c(self S, name X), e(a X, b Y).
"""


@pytest.mark.parametrize("seed", range(20))
def test_class_fact_programs_bit_identical(seed):
    rng = random.Random(1000 + seed)
    unit = parse_source(CLASS_SOURCE)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    for i in range(rng.randint(1, 6)):
        edb.add_object("c", Oid(100 + i), TupleValue(name=f"n{i}"))
    for semantics in (Semantics.INFLATIONARY, Semantics.STRATIFIED):
        fast = outcome(schema, program, edb, semantics, incremental=True)
        slow = outcome(schema, program, edb, semantics, incremental=False)
        assert fast == slow


# ---------------------------------------------------------------------------
# oid invention: identical up to oid renaming
# ---------------------------------------------------------------------------
INVENTION_SOURCE = """
classes
  node = (name: string).
associations
  e = (a: string, b: string).
rules
  node(name X) <- e(a X, b Y).
"""


@pytest.mark.parametrize("seed", range(20))
def test_invention_programs_isomorphic(seed):
    rng = random.Random(2000 + seed)
    unit = parse_source(INVENTION_SOURCE)
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    fast = outcome(schema, program, edb, Semantics.INFLATIONARY, True)
    slow = outcome(schema, program, edb, Semantics.INFLATIONARY, False)
    assert fast[0] == slow[0] == "ok"
    assert fast[1].to_instance().isomorphic_to(slow[1].to_instance())


# ---------------------------------------------------------------------------
# stats: the running counter must agree with a full recount
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seminaive", [True, False])
def test_running_counter_matches_recount(seminaive):
    rng = random.Random(42)
    unit = parse_source(random_program(rng))
    schema, program = unit.schema(), unit.program()
    edb = random_edb(rng)
    obs = None if seminaive else Instrumentation(MetricsRegistry())
    engine = Engine(
        schema, program, EvalConfig(max_iterations=MAX_ITERATIONS),
        instrumentation=obs,
    )
    out = engine.run(edb.copy())
    assert engine.stats.used_seminaive is seminaive
    assert engine.stats.facts_derived == out.count()
    assert engine.stats.time_total > 0.0
    assert len(engine.stats.time_per_iteration) >= 1

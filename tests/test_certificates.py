"""Certificate soundness: permutation within a certified group is free.

The independence certificates of :mod:`repro.analysis.interference`
claim that rules inside one group are order-insensitive.  This suite
holds that claim to the bit level: for 100+ random programs — spanning
joins, recursion, filters, negation, deletion heads, class-attribute
writes, class reads and oid invention — permuting the source rules
within any certified-independent group must produce a final instance
**identical** to the unpermuted program evaluated on the reference
kernel, under all three semantics (matching failure behaviour included).

This is also what licenses the engine's certificate-backed reordering
in ``Engine._attach_plans`` (cheapest-plan-first within a group).
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro import (
    Engine,
    EvalConfig,
    FactSet,
    ResourceGuard,
    Semantics,
    parse_source,
)
from repro.analysis import lint_source
from repro.errors import LogresError
from repro.language.ast import Program
from repro.workloads import random_edges
from tests.kernels import REFERENCE

MAX_ITERATIONS = 300

SHAPES = (
    "copy", "swap", "join", "filter", "closure", "negation", "deletion",
    "class-write", "class-read",
)


def random_cert_program(rng: random.Random) -> str:
    """A random program over association ``e`` and class ``node``.

    Shapes mirror the incremental-kernel generator plus the
    object-oriented ones that matter to interference analysis: class
    attribute writes (o-value overwrites), class reads, and (sometimes)
    an oid-inventing rule.  Always stratifiable.
    """
    shapes = rng.choices(SHAPES, k=rng.randint(3, 6))
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
        elif shape == "closure":
            rules.append(f"{out}(a X, b Y) <- {prev}(a X, b Y).")
            rules.append(
                f"{out}(a X, b Z) <- {prev}(a X, b Y), {out}(a Y, b Z)."
            )
        elif shape == "negation":
            rules.append(
                f"{out}(a X, b Y) <- {prev}(a X, b Y), ~e(a Y, b X)."
            )
        elif shape == "deletion":
            rules.append(
                f"~{out}(a X, b Y) <- {out}(a X, b Y), e(a Y, b X)."
            )
            rules.append(f"{out}(a X, b Y) <- {prev}(a X, b Y).")
        elif shape == "class-write":
            rules.append(
                f"node(self S, tag Y) <- node(self S, name X),"
                f" {prev}(a X, b Y)."
            )
        else:  # class-read
            rules.append(
                f"{out}(a X, b X) <- node(self S, name X)."
            )
    if rng.random() < 0.3:
        # a single inventor keeps multi-rule certificates possible;
        # a second one (sometimes) exercises the singleton guard
        rules.append("node(name X, tag X) <- e(a X, b X).")
        if rng.random() < 0.3:
            rules.append("node(name Y, tag Y) <- e(a Y, b Y).")
    source = (
        "classes\n  node = (name: string, tag: string).\n"
        "associations\n  e = (a: string, b: string).\n"
        + "\n".join(decls)
        + "\nrules\n  "
        + "\n  ".join(rules)
    )
    return source


def seed_edb(rng: random.Random) -> FactSet:
    nodes = rng.randint(3, 7)
    edges = rng.randint(2, 10)
    return random_edges(nodes, edges, seed=rng.randrange(10_000),
                        acyclic=rng.random() < 0.7,
                        pred="e", a="a", b="b")


def outcome(schema, program, edb, semantics, *, reference: bool):
    """(status, payload) so legitimately failing runs compare equal."""
    config = dataclasses.replace(
        REFERENCE if reference else EvalConfig(),
        max_iterations=MAX_ITERATIONS,
        guard=ResourceGuard(max_facts=50_000),
    )
    engine = Engine(schema, program, config)
    try:
        return "ok", engine.run(edb.copy(), semantics)
    except LogresError as exc:
        return "error", type(exc).__name__


def permute_within_group(program: Program, group, rng: random.Random):
    """The program with the rules of one certified group shuffled in
    place (their source slots keep their positions; members rotate)."""
    perm = list(group)
    while True:
        rng.shuffle(perm)
        if perm != list(group) or len(group) < 2:
            break
    rules = list(program.rules)
    for slot, src in zip(group, perm):
        rules[slot] = program.rules[src]
    return Program(tuple(rules), program.goal)


SEMANTICS = (
    Semantics.INFLATIONARY,
    Semantics.STRATIFIED,
    Semantics.NONINFLATIONARY,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9))
def test_certified_permutation_is_bit_identical(seed):
    rng = random.Random(seed)
    source = random_cert_program(rng)
    report = lint_source(source)
    assert not report.has_errors, source
    inter = report.interference
    candidates = [
        g for s in inter.strata for g in s.groups if len(g) >= 2
    ]
    if not candidates:
        return  # all-singleton certificates: nothing to permute
    group = rng.choice(candidates)

    unit = parse_source(source)
    schema, program = unit.schema(), unit.program()
    permuted = permute_within_group(program, group, rng)
    edb = seed_edb(rng)
    for semantics in SEMANTICS:
        base = outcome(schema, program, edb, semantics, reference=True)
        alt = outcome(schema, permuted, edb, semantics, reference=False)
        assert base[0] == alt[0], (semantics, source, group, base, alt)
        assert base[1] == alt[1], (semantics, source, group)


def test_generator_produces_permutable_groups():
    """The property above must not be vacuous: a healthy share of the
    generated programs carry a multi-rule certificate."""
    rng = random.Random(7)
    hits = 0
    for _ in range(40):
        report = lint_source(random_cert_program(rng))
        assert not report.has_errors
        hits += any(
            len(g) >= 2
            for s in report.interference.strata
            for g in s.groups
        )
    assert hits >= 20


def test_known_program_has_multi_rule_certificate():
    source = """
    associations
      e = (a: string, b: string).
      out0 = (a: string, b: string).
      out1 = (a: string, b: string).
    rules
      out0(a X, b Y) <- e(a X, b Y).
      out1(a Y, b X) <- e(a X, b Y).
    """
    report = lint_source(source)
    inter = report.interference
    assert [s.groups for s in inter.strata] in (
        [[[0, 1]]],                       # one stratum, one group
        [[[0]], [[1]]],                   # or split strata, each whole
    )

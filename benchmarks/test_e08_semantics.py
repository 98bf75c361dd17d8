"""E8 — Inflationary vs stratified vs non-inflationary semantics.

Paper anchor: Section 3.1 — "Two different semantics can be assigned to
LOGRES programs"; stratification "yields the perfect model semantics";
modules make databases "parametric with respect to the semantics of the
rules they support".

Series: evaluation time of the same stratified program (closure plus a
negation stratum) under the three semantics, vs graph size.  Expected
shape: stratified ≈ inflationary (same work, partitioned); the
non-inflationary route recomputes the IDB from scratch each step and
lands an integer factor above both.  All three produce the same model
on this (stratified) program — asserted by the correctness gate.
"""

import pytest

from benchmarks.conftest import build_unit, run_logres
from repro import Semantics
from repro.workloads import random_edges

SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
  leaf = (n: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
  leaf(n Y) <- parent(par X, chil Y), ~parent(par Y, chil Z).
"""

SIZES = [40, 80]

ALL_SEMANTICS = [
    Semantics.INFLATIONARY,
    Semantics.STRATIFIED,
    Semantics.NONINFLATIONARY,
]


@pytest.mark.parametrize("edges", SIZES)
@pytest.mark.parametrize("semantics", ALL_SEMANTICS,
                         ids=lambda s: s.value)
@pytest.mark.benchmark(group="e08-semantics")
def test_semantics(benchmark, semantics, edges):
    schema, program = build_unit(SOURCE)
    edb = random_edges(edges // 2, edges, seed=17)
    out = benchmark(run_logres, schema, program, edb, semantics)
    assert out.count("anc") >= out.count("parent")


def test_all_semantics_agree_on_stratified_program():
    schema, program = build_unit(SOURCE)
    edb = random_edges(30, 60, seed=17)
    results = [
        run_logres(schema, program, edb, semantics)
        for semantics in ALL_SEMANTICS
    ]
    assert results[0] == results[1] == results[2]


def test_inflationary_is_uniform_on_unstratified_program():
    """The headline claim: inflationary semantics gives *every* program
    a deterministic meaning, including non-stratified ones that the
    perfect-model semantics rejects."""
    from repro.errors import StratificationError

    schema, program = build_unit("""
    associations
      move = (a: string, b: string).
      win = (p: string).
    rules
      win(p X) <- move(a X, b Y), ~win(p Y).
    """)
    edb = random_edges(12, 18, seed=3, pred="move", a="a", b="b")
    out = run_logres(schema, program, edb, Semantics.INFLATIONARY)
    assert out.count("win") > 0
    with pytest.raises(StratificationError):
        run_logres(schema, program, edb, Semantics.STRATIFIED)

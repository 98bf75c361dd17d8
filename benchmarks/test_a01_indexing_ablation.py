"""A1 (ablation) — per-predicate hash indexes in the fact store.

DESIGN.md calls out the indexed fact store (S8) as an engineering choice
of the main-memory substrate; this ablation quantifies it.  The default
kernel is run with index lookups enabled vs. disabled (full predicate
scans) on join-heavy transitive closure.

Expected shape: the gap widens super-linearly with database size, since
each scan is linear in the predicate extension and joins multiply scans.
"""

import pytest

from benchmarks.conftest import build_unit, TC_SOURCE
from repro import Engine, EvalConfig
from repro.workloads import random_edges

SIZES = [60, 120]


@pytest.mark.parametrize("edges", SIZES)
@pytest.mark.parametrize("indexed", [True, False],
                         ids=["indexed", "scan"])
@pytest.mark.benchmark(group="a01-indexing")
def test_indexing(benchmark, edges, indexed):
    schema, program = build_unit(TC_SOURCE)
    edb = random_edges(edges // 2, edges, seed=31)
    config = EvalConfig(use_indexes=indexed)

    def run():
        return Engine(schema, program, config).run(edb)

    out = benchmark(run)
    assert out.count("anc") > 0


def test_both_configurations_agree():
    schema, program = build_unit(TC_SOURCE)
    edb = random_edges(40, 80, seed=31)
    fast = Engine(schema, program, EvalConfig(use_indexes=True)).run(edb)
    slow = Engine(schema, program, EvalConfig(use_indexes=False)).run(edb)
    assert fast == slow

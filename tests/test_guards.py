"""Execution guards: budgets, cancellation, snapshots, CLI exit 3."""

import pytest

from repro import (
    Engine,
    EvalConfig,
    FactSet,
    ResourceGuard,
    Semantics,
    TupleValue,
    parse_schema_source,
    parse_program,
)
from repro.cli import main
from repro.engine import guards
from repro.engine.guards import BUDGET_CODES, value_size
from repro.errors import EvalBudgetExceeded, NonTerminationError
from repro.observability import Instrumentation, MetricsRegistry
from repro.values.complex import (
    MultisetValue,
    SequenceValue,
    SetValue,
)

COUNTING_SCHEMA = """
associations
  n = (v: integer).
"""

#: derives n(1), n(2), ... one per iteration — never terminates
COUNTING_RULES = """
rules
  n(v V1) <- n(v V), V1 = V + 1.
"""

INVENTING_SCHEMA = """
classes
  thing = (tag: string).
associations
  seed = (tag: string).
"""

#: invents one fresh thing per seed tuple per iteration via chaining
INVENTING_RULES = """
rules
  thing(tag T) <- seed(tag T).
  thing(tag T) <- thing(tag T).
"""


def counting_state():
    schema = parse_schema_source(COUNTING_SCHEMA)
    program = parse_program(COUNTING_RULES)
    edb = FactSet()
    edb.add_association("n", TupleValue(v=1))
    return schema, program, edb


def inventing_state():
    schema = parse_schema_source(INVENTING_SCHEMA)
    program = parse_program(INVENTING_RULES)
    edb = FactSet()
    for i in range(20):
        edb.add_association("seed", TupleValue(tag=f"t{i}"))
    return schema, program, edb


def run_counting(guard, **cfg):
    schema, program, edb = counting_state()
    engine = Engine(schema, program,
                    EvalConfig(guard=guard, **cfg))
    return engine, engine.run(edb, Semantics.INFLATIONARY)


class TestValueSize:
    def test_scalars_count_one(self):
        assert value_size(7) == 1
        assert value_size("x") == 1

    def test_tuple_sums_fields(self):
        assert value_size(TupleValue(a=1, b="x")) == 2

    def test_collections_sum_elements(self):
        assert value_size(SetValue([1, 2, 3])) == 3
        assert value_size(SequenceValue([1, 2])) == 2
        assert value_size(MultisetValue([1, 1, 2])) == 3

    def test_empty_collection_counts_one(self):
        assert value_size(SetValue([])) == 1

    def test_nested(self):
        v = TupleValue(xs=SetValue([TupleValue(a=1, b=2)]), y=3)
        assert value_size(v) == 3


class TestBudgets:
    def test_max_facts_trips(self):
        guard = ResourceGuard(max_facts=10)
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            run_counting(guard)
        exc = exc_info.value
        assert exc.budget == "max_facts"
        assert exc.limit == 10
        assert exc.observed > 10
        assert exc.stats is not None and exc.stats.iterations > 0
        assert exc.iterations == exc.stats.iterations

    def test_breach_is_a_nontermination_error(self):
        guard = ResourceGuard(max_facts=10)
        with pytest.raises(NonTerminationError):
            run_counting(guard)

    def test_snapshot_is_consistent_inflationary_prefix(self):
        guard = ResourceGuard(max_facts=5)
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            run_counting(guard)
        snap = exc_info.value.snapshot
        assert snap is not None
        values = sorted(f.value["v"] for f in snap.facts_of("n"))
        # a full prefix 1..k of the counting chain, no holes
        assert values == list(range(1, len(values) + 1))

    def test_timeout_trips(self):
        guard = ResourceGuard(timeout=0.0)
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            run_counting(guard)
        assert exc_info.value.budget == "timeout"

    def test_max_inventions_trips_at_invention_site(self):
        schema, program, edb = inventing_state()
        guard = ResourceGuard(max_inventions=5)
        engine = Engine(schema, program, EvalConfig(guard=guard))
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            engine.run(edb, Semantics.INFLATIONARY)
        exc = exc_info.value
        assert exc.budget == "max_inventions"
        # stopped mid-iteration: did not run to the end of the iteration
        # and invent one oid per seed
        assert exc.observed == 6

    def test_max_fact_size_trips(self):
        guard = ResourceGuard(max_fact_size=1)
        schema = parse_schema_source("""
        associations
          pair = (a: integer, b: integer).
          wide = (a: integer, b: integer).
        """)
        program = parse_program("""
        rules
          wide(a A, b B) <- pair(a A, b B).
        """)
        edb = FactSet()
        edb.add_association("pair", TupleValue(a=1, b=2))
        engine = Engine(schema, program, EvalConfig(guard=guard))
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            engine.run(edb, Semantics.INFLATIONARY)
        exc = exc_info.value
        assert exc.budget == "max_fact_size"
        assert exc.observed == 2

    def test_reference_kernel_guarded_too(self):
        guard = ResourceGuard(max_facts=10)
        with pytest.raises(EvalBudgetExceeded):
            run_counting(guard, incremental=False)

    def test_unguarded_budget_still_works(self):
        with pytest.raises(NonTerminationError) as exc_info:
            run_counting(None, max_iterations=20)
        exc = exc_info.value
        assert not isinstance(exc, EvalBudgetExceeded)
        assert exc.stats is not None
        assert exc.stats.iterations >= 20


#: the kernels a run can take: the default fast path (semi-naive where
#: the scope allows it), the general in-place path (forced by enabled
#: instrumentation) and the reference kernel
KERNELS = ("default", "general", "reference")


def kernel_engine(schema, program, kernel):
    """An unguarded engine on ``kernel``: it runs under the default
    guard."""
    obs = Instrumentation(MetricsRegistry()) if kernel == "general" \
        else None
    return Engine(schema, program,
                  EvalConfig(incremental=kernel != "reference"),
                  instrumentation=obs)


class TestDefaultBudgets:
    """A fact or invention budget left unset resolves to the default,
    which the one guard enforces like any other budget: the breach is an
    :class:`EvalBudgetExceeded` naming it, with a consistent snapshot.
    The defaults are lowered here so the runs stay small."""

    def test_unset_fields_resolve_to_the_defaults(self):
        guard = ResourceGuard(timeout=5)
        assert (guard.max_facts, guard.max_inventions) == \
            (1_000_000, 100_000)
        assert guard.max_fact_size is None
        guard.arm()
        guard.check_iteration(1_000_000, 100_000)  # at the limits
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            guard.check_iteration(1_000_001, 0)
        assert exc_info.value.budget == "max_facts"
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            guard.on_invention(100_001)
        assert exc_info.value.budget == "max_inventions"

    def test_an_unguarded_engine_holds_the_default_guard(self):
        schema, program, _ = counting_state()
        engine = Engine(schema, program)
        assert engine.config.guard is None
        assert engine.guard == ResourceGuard()

    @pytest.mark.parametrize("semantics", list(Semantics),
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_default_fact_budget_breach(self, monkeypatch, kernel,
                                        semantics):
        monkeypatch.setattr(guards, "DEFAULT_MAX_FACTS", 12)
        schema, program, edb = counting_state()
        engine = kernel_engine(schema, program, kernel)
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            engine.run(edb, semantics)
        exc = exc_info.value
        assert (exc.budget, exc.limit) == ("max_facts", 12)
        assert exc.observed > 12
        assert exc.stats is not None
        assert exc.iterations == exc.stats.iterations > 0
        values = sorted(f.value["v"] for f in exc.snapshot.facts_of("n"))
        # a full prefix 1..k of the counting chain, past the budget
        assert values == list(range(1, len(values) + 1))
        assert len(values) == exc.observed

    @pytest.mark.parametrize("semantics", [Semantics.INFLATIONARY,
                                           Semantics.STRATIFIED],
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_default_invention_budget_breach(self, monkeypatch, kernel,
                                             semantics):
        monkeypatch.setattr(guards, "DEFAULT_MAX_INVENTIONS", 5)
        schema, program, edb = inventing_state()
        engine = kernel_engine(schema, program, kernel)
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            engine.run(edb, semantics)
        exc = exc_info.value
        assert (exc.budget, exc.limit, exc.observed) == \
            ("max_inventions", 5, 6)
        # stopped at an invention site of the first iteration: the
        # snapshot is the state at its boundary, the EDB
        assert exc.snapshot == edb
        assert exc.stats is not None


class TestCancellation:
    def test_cancel_is_sticky_until_reset(self):
        guard = ResourceGuard()
        guard.cancel()
        assert guard.cancelled
        with pytest.raises(EvalBudgetExceeded) as exc_info:
            run_counting(guard)
        assert exc_info.value.budget == "cancelled"
        # still cancelled: a second run refuses immediately
        with pytest.raises(EvalBudgetExceeded):
            run_counting(guard)
        guard.reset()
        assert not guard.cancelled

    def test_arm_fixes_the_deadline_per_run(self):
        guard = ResourceGuard(timeout=1000.0)
        guard.arm()
        guard.check_iteration(0, 0)  # nowhere near the deadline


class TestBudgetCodes:
    def test_every_budget_has_a_code(self):
        assert set(BUDGET_CODES) == {
            "timeout", "max_facts", "max_inventions",
            "max_fact_size", "cancelled", "max_iterations",
        }

    def test_codes_are_registered_diagnostics(self):
        from repro.analysis.diagnostics import CODES

        for code in BUDGET_CODES.values():
            assert code in CODES


class TestCliExit3(object):
    def make_program(self, tmp_path):
        src = tmp_path / "count.lg"
        src.write_text(
            COUNTING_SCHEMA + COUNTING_RULES
            + "rules\n  n(v 1).\n"
        )
        return src

    def test_run_max_facts_exits_3(self, tmp_path, capsys):
        src = self.make_program(tmp_path)
        status = main(["run", str(src), "--max-facts", "10"])
        assert status == 3
        err = capsys.readouterr().err
        assert "error[LG802]" in err
        assert "fact budget exceeded" in err
        assert "iteration(s)" in err
        assert str(src) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [[], ["--reference"],
                                       ["--timeout", "60"]],
                             ids=["default", "reference", "timeout"])
    def test_run_default_fact_budget_is_lg802(self, tmp_path, capsys,
                                              monkeypatch, flags):
        monkeypatch.setattr(guards, "DEFAULT_MAX_FACTS", 10)
        src = self.make_program(tmp_path)
        assert main(["run", str(src), *flags]) == 3
        err = capsys.readouterr().err
        assert "error[LG802]" in err
        assert "fact budget exceeded" in err

    def test_run_default_invention_budget_is_lg803(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(guards, "DEFAULT_MAX_INVENTIONS", 5)
        src = tmp_path / "invent.lg"
        src.write_text(INVENTING_SCHEMA + INVENTING_RULES + "".join(
            f'  seed(tag "t{i}").\n' for i in range(20)))
        assert main(["run", str(src)]) == 3
        err = capsys.readouterr().err
        assert "error[LG803]" in err
        assert "oid invention budget exceeded" in err

    def test_run_timeout_exits_3(self, tmp_path, capsys):
        src = self.make_program(tmp_path)
        status = main(["run", str(src), "--timeout", "0.0"])
        assert status == 3
        assert "error[LG801]" in capsys.readouterr().err

    def test_run_max_iterations_exits_3(self, tmp_path, capsys):
        src = self.make_program(tmp_path)
        status = main(["run", str(src), "--max-iterations", "7"])
        assert status == 3
        err = capsys.readouterr().err
        assert "error[LG806]" in err
        assert "no fixpoint after 7 iterations" in err
        assert "stopped after" in err

    def test_check_exits_3(self, tmp_path, capsys):
        src = self.make_program(tmp_path)
        status = main(["check", str(src), "--max-facts", "10"])
        assert status == 3
        assert "error[LG802]" in capsys.readouterr().err

    def test_profile_exits_3(self, tmp_path, capsys):
        src = self.make_program(tmp_path)
        status = main(["profile", str(src), "--max-facts", "10"])
        assert status == 3
        assert "error[LG802]" in capsys.readouterr().err

    def test_unguarded_run_still_succeeds(self, tmp_path, capsys):
        src = tmp_path / "ok.lg"
        src.write_text("""
        associations
          p = (x: string).
        rules
          p(x "a").
        """)
        assert main(["run", str(src), "--timeout", "60"]) == 0

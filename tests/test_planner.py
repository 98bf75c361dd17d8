"""Unit tests for the cost-based rule planner.

The planner (:mod:`repro.engine.planner`) is the one optimizer surface:
it chooses literal orders for the engine (and, via
:func:`static_literal_order`, join orders for the LOGRES→ALGRES
compiler) and re-exports the algebraic identities of
:mod:`repro.algres.optimize`.  These tests pin the ordering heuristics,
the observability wiring (events, metrics, profile, run report) and the
single-optimizer identity.
"""

from repro import Engine, EvalConfig, FactSet, Semantics, parse_source
from repro.engine.planner import Stats, build_plan, static_literal_order
from repro.language.ast import Literal
from repro.storage.factset import Fact
from repro.values.complex import TupleValue


def _unit(src):
    unit = parse_source(src)
    return unit.schema(), unit.program()


def _edges(pred, pairs):
    out = FactSet()
    for a, b in pairs:
        out.add(Fact(pred, TupleValue({"a": a, "b": b})))
    return out


TC_SOURCE = """
associations
  e = (a: string, b: string).
  tc = (a: string, b: string).
rules
  tc(a X, b Y) <- e(a X, b Y).
  tc(a X, b Z) <- e(a X, b Y), tc(a Y, b Z).
"""


def test_recursive_rule_probes_index_after_scan():
    schema, program = _unit(TC_SOURCE)
    engine = Engine(schema, program, EvalConfig())
    edb = _edges("e", [(f"n{i}", f"n{i+1}") for i in range(10)])
    (plan,) = engine.explain_plan(edb)
    recursive = plan.rules[1]
    assert recursive.order == (0, 1)
    assert recursive.steps[0].access == "scan"
    assert recursive.steps[1].access.startswith("index:")
    # every positive position has a delta order for the semi-naive seeds
    assert set(recursive.delta_orders) == {0, 1}


def test_smallest_relation_scanned_first():
    src = """
associations
  big = (a: string, b: string).
  small = (a: string, b: string).
  out = (p: string, q: string).
rules
  out(p X, q Y) <- big(a X, b X2), small(a Y, b Y2).
"""
    schema, program = _unit(src)
    edb = _edges("big", [(f"b{i}", f"b{i+1}") for i in range(30)])
    for a, b in [("s0", "s1"), ("s1", "s2")]:
        edb.add(Fact("small", TupleValue({"a": a, "b": b})))
    engine = Engine(schema, program, EvalConfig())
    (plan,) = engine.explain_plan(edb)
    rule = plan.rules[0]
    assert rule.order == (1, 0)  # small before big
    assert rule.reordered


def test_builtin_pushed_to_earliest_legal_position():
    src = """
associations
  e = (a: string, b: string).
  out = (a: string, b: string).
rules
  out(a X, b Y) <- X < Y, e(a X, b Y).
"""
    schema, program = _unit(src)
    engine = Engine(schema, program, EvalConfig())
    (plan,) = engine.explain_plan(FactSet())
    rule = plan.rules[0]
    # the comparison cannot run before X and Y are bound; it follows
    # the literal immediately (earliest legal), not in textual order
    assert rule.order == (1, 0)
    assert [s.kind for s in rule.steps] == ["literal", "builtin"]


def test_negation_runs_as_soon_as_bound():
    src = """
associations
  e = (a: string, b: string).
  f = (a: string, b: string).
  out = (a: string, b: string).
rules
  out(a X, b Z) <- e(a X, b Y), e(a Y, b Z), ~f(a X, b Y).
"""
    schema, program = _unit(src)
    engine = Engine(schema, program, EvalConfig())
    (plan,) = engine.explain_plan(_edges("e", [("x", "y")]))
    rule = plan.rules[0]
    assert rule.order is not None
    steps = {step.pos: i for i, step in enumerate(rule.steps)}
    # the negation (pos 2) runs right after its variables are bound by
    # pos 0, before the second join
    assert steps[2] == 1


def test_stratified_plans_one_per_stratum():
    src = """
associations
  e = (a: string, b: string).
  r = (a: string, b: string).
  u = (a: string, b: string).
rules
  r(a X, b Y) <- e(a X, b Y).
  u(a X, b Y) <- e(a X, b Y), ~r(a X, b Y).
"""
    schema, program = _unit(src)
    engine = Engine(schema, program, EvalConfig())
    plans = engine.explain_plan(_edges("e", [("x", "y")]),
                                Semantics.STRATIFIED)
    assert len(plans) == 2
    assert [p.stratum for p in plans] == [0, 1]
    assert all(p.semantics == "stratified" for p in plans)


def test_engine_records_plans_and_run_uses_them():
    schema, program = _unit(TC_SOURCE)
    engine = Engine(schema, program, EvalConfig())
    edb = _edges("e", [(f"n{i}", f"n{i+1}") for i in range(5)])
    out = engine.run(edb)
    assert out.count("tc") == 5 + 4 + 3 + 2 + 1
    assert len(engine.plans) == 1
    assert engine.plans[0].rules[1].order == (0, 1)
    # plan=off keeps the same answers and records nothing
    engine_off = Engine(schema, program, EvalConfig(plan=False))
    out_off = engine_off.run(edb)
    assert {f.value for f in out.facts_of("tc")} == \
        {f.value for f in out_off.facts_of("tc")}
    assert engine_off.plans == []


def test_plan_events_metrics_and_report():
    from repro.observability import (
        CollectorSink,
        Instrumentation,
        MetricsRegistry,
    )
    from repro.observability.report import build_run_report

    schema, program = _unit(TC_SOURCE)
    collector = CollectorSink()
    obs = Instrumentation(MetricsRegistry(), collector)
    engine = Engine(schema, program, EvalConfig(),
                    instrumentation=obs)
    engine.run(_edges("e", [("x", "y"), ("y", "z")]))
    events = [e for e in collector.events if e.kind == "plan"]
    assert len(events) == 1
    assert events[0].rules == 2
    assert events[0].plan["rules"][1]["order"] == [0, 1]
    snap = obs.metrics.snapshot()["counters"]
    assert snap.get("plans_built{semantics=inflationary}") == 1
    report = build_run_report(engine, obs, semantics="inflationary")
    assert report.config["plan"] is True
    assert report.config["kernel"] == "incremental"
    assert report.plans and report.plans[0]["rules"]
    roundtrip = type(report).from_dict(report.to_dict())
    assert roundtrip.plans == report.plans
    assert roundtrip.config == report.config


def test_profile_carries_plans():
    from repro.observability.profile import profile_program

    schema, program = _unit(TC_SOURCE)
    _, profile, obs = profile_program(
        schema, program, _edges("e", [("x", "y")])
    )
    obs.close()
    assert profile.plans and profile.plans[0]["semantics"] == \
        "inflationary"
    assert "plans" in profile.to_dict()
    assert "plans:" in profile.render_text()


def test_derivable_predicates_floored_not_preferred():
    schema, program = _unit(TC_SOURCE)
    engine = Engine(schema, program, EvalConfig())
    edb = _edges("e", [(f"n{i}", f"n{i+1}") for i in range(10)])
    stats = Stats(edb, idb_preds=("tc",))
    # tc is empty at planning time but floored to the largest relation,
    # so the extensional scan is preferred over the empty recursion
    assert stats.card("tc") == stats.card("e") == 10.0
    (plan,) = engine.explain_plan(edb)
    assert plan.rules[1].steps[0].text.startswith("e(")


def _unconnected_steps(body, order, bound=()):
    """Positive literals of ``order`` that share no variable with the
    variables bound before them (``bound`` plus the earlier literals')."""
    bound = set(bound)
    loose = []
    for pos in order:
        lit = body[pos]
        variables = set(lit.variables())
        if bound and isinstance(lit, Literal) and not lit.negated \
                and bound.isdisjoint(variables):
            loose.append(pos)
        bound |= variables
    return loose


def test_connected_literal_beats_unconnected_scan():
    # rbac's `can <- user_role, inherits, role_perm`: the empty-IDB
    # floor ties the index probe of `inherits` on the role bound by
    # `role_perm` with a scan of the unconnected `user_role`; the
    # planner must not take the cross product, in the full order or in
    # any semi-naive delta order
    from repro.workloads.families import FAMILIES

    schema, program, edb = FAMILIES["rbac"].build(400, 0)
    engine = Engine(schema, program, EvalConfig())
    bodies = {r.index: tuple(r.rule.body) for r in engine.runtimes}
    for semantics in (Semantics.INFLATIONARY, Semantics.STRATIFIED):
        for plan in engine.explain_plan(edb, semantics):
            for rp in plan.rules:
                body = bodies[rp.index]
                assert _unconnected_steps(body, rp.order) == [], rp.label
                for seed, order in rp.delta_orders.items():
                    seeded = body[seed].variables()
                    assert _unconnected_steps(body, order, seeded) == [], \
                        (rp.label, seed)


def test_connected_index_probe_preferred_over_cheaper_scan():
    src = """
associations
  a = (x: string, y: string).
  b = (y: string, z: string).
  c = (w: string).
  out = (x: string, w: string).
rules
  out(x X, w W) <- a(x X, y Y), c(w W), b(y Y, z Z).
"""
    schema, program = _unit(src)
    engine = Engine(schema, program, EvalConfig())
    edb = FactSet()
    for i in range(5):
        edb.add(Fact("a", TupleValue({"x": f"x{i}", "y": f"y{i % 2}"})))
    for i in range(100):
        edb.add(Fact("b", TupleValue({"y": f"y{i % 2}", "z": f"z{i}"})))
    for i in range(10):
        edb.add(Fact("c", TupleValue({"w": f"w{i}"})))
    (plan,) = engine.explain_plan(edb)
    steps = plan.rules[0].steps
    # after `a`, scanning `c` (10) is cheaper than probing `b` on the
    # bound y (50 per key), but `c` shares no variable: it runs last
    assert [s.text.split("(")[0] for s in steps] == ["a", "b", "c"]
    assert steps[1].access == "index:y" and steps[2].est < steps[1].est


def test_static_literal_order_propagates_bindings():
    src = """
associations
  p = (a: string, b: string).
  q = (a: string, b: string).
  out = (a: string, b: string).
rules
  out(a X, b Z) <- q(a Y, b Z), p(a X, b Y).
"""
    schema, program = _unit(src)
    body = list(program.rules[0].body)
    order = static_literal_order(body)
    # with neutral stats the textual first literal scans, then the
    # second probes the shared variable's index
    assert order == [0, 1]
    assert static_literal_order(body[:1]) == [0]


def test_single_optimizer_surface():
    """The algebraic identities exist once: the planner re-exports the
    very same functions the ALGRES package exposes."""
    import importlib

    import repro.algres as algres
    import repro.engine.planner as planner

    algres_optimize = importlib.import_module("repro.algres.optimize")
    assert planner.optimize is algres_optimize.optimize
    assert planner.optimize is algres.optimize
    assert planner.condition_fields is algres_optimize.condition_fields
    assert planner.rename_condition is algres_optimize.rename_condition


def test_build_plan_direct_fallback_contract():
    """A plan is advisory: rules the static scheduler cannot order get
    ``order=None`` plus a reason, and the engine keeps the dynamic
    scheduler (exercised via a compiled-fragment miss: patterns)."""
    src = """
associations
  e = (a: string, b: string).
  out = (a: string, b: string).
rules
  out(a X, b Y) <- e(a X, b Y).
"""
    schema, program = _unit(src)
    engine = Engine(schema, program, EvalConfig())
    plan = build_plan(engine.runtimes, FactSet())
    assert plan.rules[0].order == (0,)
    assert plan.rules[0].fallback is None
    rendered = plan.render_text()
    assert "rule 0" in rendered and "est" in rendered

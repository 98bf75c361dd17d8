"""Cost-based rule planning: literal orders chosen from live statistics.

The paper's LOGRES prototype compiles rules into ALGRES algebra and
relies on an optimizer to make rule programs practical; this module is
that optimizer, unified for both evaluation paths:

* **Body planning** — :func:`build_plan` reorders each rule body per
  stratum using per-literal selectivity estimated from the live
  :class:`~repro.storage.factset.FactSet` index statistics (predicate
  cardinalities and distinct-value counts per indexed position) plus,
  when an instrumented run supplies one, the observed ``join_fanout``
  metrics of earlier runs.  Bound variables propagate left to right,
  the cheapest (smallest estimated candidate set) positive literal runs
  first, and negations / built-ins are pushed to their earliest legal
  position — the static mirror of the greedy runtime scheduler in
  :mod:`repro.engine.step`.
* **Algebraic identities** — :func:`optimize` applies the classical
  equivalences (selection fusion and pushdown, projection cascade,
  rename merging) to ALGRES expressions; :func:`static_literal_order`
  gives the LOGRES→ALGRES compiler the same join order the engine
  would pick.  The identities live in :mod:`repro.algres.optimize`
  (below the engine in the import graph) and are re-exported here, so
  this module is the one optimizer surface for both evaluation paths:
  join orders and rewrites each exist exactly once.  The re-export is
  lazy (a module ``__getattr__``): planning a rule body never loads
  the algebra package.

A plan is advisory: when a body cannot be ordered statically (a literal
would never become schedulable), :func:`build_plan` records a fallback
and the engine keeps the dynamic scheduler, preserving error behaviour
bit for bit.  Plans are observable — each one is emitted as a
:class:`~repro.observability.events.PlanChosen` event and surfaces in
``repro profile`` / run reports / ``repro plan``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from repro.language.ast import (
    BuiltinLiteral,
    Constant,
    Literal,
    Pattern,
    Term,
    Var,
)
from repro.language.builtins import RESULT_LAST

__all__ = [
    "Plan",
    "RulePlan",
    "LiteralStep",
    "Stats",
    "build_plan",
    "static_literal_order",
    "optimize",
    "condition_fields",
    "rename_condition",
]

#: the algebraic identities re-exported from :mod:`repro.algres.optimize`
_ALGRES_IDENTITIES = ("optimize", "condition_fields", "rename_condition")


def __getattr__(name: str):
    # importlib, not ``import ... as``: ``repro.algres`` rebinds its
    # ``optimize`` attribute to the function of the same name
    if name in _ALGRES_IDENTITIES:
        return getattr(importlib.import_module("repro.algres.optimize"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# live statistics
# ---------------------------------------------------------------------------
class Stats:
    """Selectivity statistics over a fact set.

    ``card(pred)`` is the live cardinality, except that a *derivable*
    predicate that is still empty at planning time is floored to the
    largest relation size: recursive predicates start empty but rarely
    stay small, and the floor keeps them from being falsely preferred
    over the extensional relations that seed them.

    ``distinct(pred, label)`` counts distinct values at an indexed
    position (one lazy index build, shared with evaluation), so an
    indexed probe is estimated at ``card / distinct`` candidates.  When
    a :class:`~repro.observability.metrics.MetricsRegistry` from an
    earlier instrumented run is supplied, the observed mean
    ``join_fanout`` per predicate overrides that estimate — the PR 3
    feedback loop.
    """

    def __init__(self, facts, idb_preds=(), metrics=None):
        self._facts = facts
        self._idb = {p.lower() for p in idb_preds}
        self._metrics = metrics
        self._card: dict[str, float] = {}
        self._distinct: dict[tuple[str, str], float] = {}
        counts = [facts.count(p) for p in facts.predicates()]
        self._floor = float(max(counts)) if counts else 1.0

    def card(self, pred: str) -> float:
        pred = pred.lower()
        cached = self._card.get(pred)
        if cached is None:
            n = float(self._facts.count(pred))
            if n == 0.0 and pred in self._idb:
                n = max(self._floor, 1.0)
            cached = self._card[pred] = n
        return cached

    def distinct(self, pred: str, label: str) -> float:
        key = (pred.lower(), label)
        cached = self._distinct.get(key)
        if cached is None:
            cached = float(
                max(1, self._facts.distinct_count(key[0], label))
            )
            self._distinct[key] = cached
        return cached

    def observed_fanout(self, pred: str) -> float | None:
        if self._metrics is None:
            return None
        hist = self._metrics.histogram(
            "join_fanout", (("pred", pred.lower()),)
        )
        if hist is None or not hist.count:
            return None
        return max(1.0, hist.mean)

    def indexed_estimate(self, pred: str, label: str) -> float:
        observed = self.observed_fanout(pred)
        if observed is not None:
            return observed
        return max(1.0, self.card(pred) / self.distinct(pred, label))


class _NeutralStats:
    """Stats stand-in when no fact set is available (static planning for
    the ALGRES compiler): every relation the same size, every index
    selective, so ordering is driven purely by bound-variable
    propagation with the textual order as tie-break."""

    def card(self, pred: str) -> float:
        return 1000.0

    def indexed_estimate(self, pred: str, label: str) -> float:
        return 100.0


# ---------------------------------------------------------------------------
# plan objects
# ---------------------------------------------------------------------------
@dataclass
class LiteralStep:
    """One scheduled body literal with its cost estimate."""

    pos: int  # original body position
    kind: str  # "literal" | "negation" | "builtin"
    access: str  # "self" | "index:<label>" | "scan" | "filter"
    est: float
    text: str

    def to_dict(self) -> dict:
        return {
            "pos": self.pos,
            "kind": self.kind,
            "access": self.access,
            "est": round(self.est, 3),
            "literal": self.text,
        }


@dataclass
class RulePlan:
    """The chosen evaluation order for one rule body.

    ``order`` is a permutation of body positions (None when planning
    fell back to the dynamic scheduler, with ``fallback`` saying why);
    ``delta_orders`` maps each positive body position to the order of
    the *remaining* literals when that position is seeded by a delta
    fact (the semi-naive drivers use these).
    """

    index: int
    label: str
    order: tuple[int, ...] | None
    steps: list[LiteralStep] = field(default_factory=list)
    delta_orders: dict[int, tuple[int, ...] | None] = field(
        default_factory=dict
    )
    cost: float = 0.0
    fallback: str | None = None

    @property
    def reordered(self) -> bool:
        return self.order is not None and \
            self.order != tuple(range(len(self.order)))

    def to_dict(self) -> dict:
        return {
            "rule": self.index,
            "label": self.label,
            "order": list(self.order) if self.order is not None else None,
            "cost": round(self.cost, 3),
            "fallback": self.fallback,
            "steps": [s.to_dict() for s in self.steps],
            "delta_orders": {
                str(pos): (list(order) if order is not None else None)
                for pos, order in self.delta_orders.items()
            },
        }


@dataclass
class Plan:
    """Every rule's plan for one (semantics, stratum) scope.

    ``independent_groups`` are the scope's independence certificates
    (:mod:`repro.analysis.interference`): groups of rule indexes
    provably order-insensitive.  The engine reorders rules only within
    a group; ``repro plan`` and ``repro analyze`` emit the same
    partition.
    """

    semantics: str
    rules: list[RulePlan] = field(default_factory=list)
    stratum: int | None = None
    independent_groups: list[list[int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "semantics": self.semantics,
            "stratum": self.stratum,
            "rules": [rp.to_dict() for rp in self.rules],
            "independent_groups": [
                list(g) for g in self.independent_groups
            ],
        }

    def render_text(self) -> str:
        scope = self.semantics
        if self.stratum is not None:
            scope += f", stratum {self.stratum}"
        lines = [f"plan ({scope})"]
        if self.independent_groups:
            groups = " ".join(
                "{" + ", ".join(f"r{i}" for i in g) + "}"
                for g in self.independent_groups
            )
            lines.append(f"  independent groups: {groups}")
        for rp in self.rules:
            lines.append(f"  rule {rp.index}: {rp.label}")
            if rp.order is None:
                lines.append(
                    f"    dynamic fallback: {rp.fallback or 'unplannable'}"
                )
                continue
            for i, step in enumerate(rp.steps, 1):
                lines.append(
                    f"    {i}. {step.text}  [{step.access},"
                    f" est {step.est:g}]"
                )
            lines.append(f"    total est {rp.cost:g}"
                         + ("  (reordered)" if rp.reordered else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# static schedulability (mirrors of the runtime scheduler)
# ---------------------------------------------------------------------------
def _required_vars(term: Term) -> set[Var]:
    """Variables that must be bound before ``term`` can appear at a
    fact component without the matcher raising (complex terms resolve;
    variables, constants and patterns bind structurally)."""
    if isinstance(term, (Var, Constant)):
        return set()
    if isinstance(term, Pattern):
        req: set[Var] = set()
        if term.args.self_term is not None:
            req |= _required_vars(term.args.self_term)
        for _, sub in term.args.labeled:
            req |= _required_vars(sub)
        return req
    return set(term.variables())


def _never_resolvable(term: Term) -> bool:
    """resolve_term raises EvaluationError on these regardless of
    bindings (patterns carrying self/tuple variables)."""
    if isinstance(term, Pattern):
        if term.args.self_term is not None or \
                term.args.tuple_var is not None:
            return True
        return any(_never_resolvable(s) for _, s in term.args.labeled)
    subs = getattr(term, "elements", None)
    if subs is not None:
        return any(_never_resolvable(s) for s in subs)
    for attr in ("left", "right"):
        sub = getattr(term, attr, None)
        if sub is not None and _never_resolvable(sub):
            return True
    return False


def _positive_schedulable(literal: Literal, bound: set[Var]) -> bool:
    args = literal.args
    if args.positional:
        return False
    if args.self_term is not None and \
            not _required_vars(args.self_term) <= bound:
        return False
    return all(
        _required_vars(term) <= bound for _, term in args.labeled
    )


def _negative_schedulable(
    literal: Literal, bound: set[Var], ad_vars: set[Var]
) -> bool:
    return all(
        v in bound or v in ad_vars for v in literal.variables()
    )


def _builtin_schedulable(blit: BuiltinLiteral, bound: set[Var]) -> bool:
    def resolvable(t: Term) -> bool:
        if _never_resolvable(t):
            return False
        return set(t.variables()) <= bound

    def var_or_resolvable(t: Term) -> bool:
        return isinstance(t, Var) or resolvable(t)

    name = blit.name
    if blit.negated:
        return all(resolvable(t) for t in blit.args)
    if name == "=" and len(blit.args) == 2:
        left, right = blit.args
        return (resolvable(left) and var_or_resolvable(right)) or (
            resolvable(right) and var_or_resolvable(left)
        )
    if name == "member" and len(blit.args) == 2:
        element, coll = blit.args
        return resolvable(coll) and var_or_resolvable(element)
    if name in RESULT_LAST and blit.args:
        *inputs, result = blit.args
        return all(resolvable(t) for t in inputs) and var_or_resolvable(
            result
        )
    return all(resolvable(t) for t in blit.args)


def _access_path(
    literal: Literal, bound: set[Var], stats
) -> tuple[str, float]:
    """How the matcher will enumerate candidates under ``bound``, and
    the estimated candidate count — the same access selection as
    :func:`repro.engine.valuation._candidate_facts`."""
    args = literal.args
    if args.self_term is not None:
        term = args.self_term
        if isinstance(term, Constant) or (
            isinstance(term, Var) and term in bound
        ):
            return "self", 1.0
    for label, term in args.labeled:
        if isinstance(term, Constant) or (
            isinstance(term, Var) and term in bound
        ):
            return f"index:{label}", stats.indexed_estimate(
                literal.pred, label
            )
    return "scan", stats.card(literal.pred)


def _order_body(
    body: tuple,
    bound0: set[Var],
    ad_vars: set[Var],
    stats,
    render,
) -> tuple[tuple[int, ...] | None, list[LiteralStep], float, str | None]:
    """Greedy static schedule of ``body`` starting from ``bound0``.

    Negations and built-ins run at their earliest legal position (they
    only filter or bind cheaply); among schedulable positive literals
    one that shares a bound variable always beats one that shares none
    (a cross product), then the cheapest access path wins, ties
    resolved by textual order.
    Returns (order, steps, cost, fallback_reason).
    """
    pending = list(range(len(body)))
    bound = set(bound0)
    order: list[int] = []
    steps: list[LiteralStep] = []
    cost = 0.0
    while pending:
        chosen = None
        # negations / builtins first, in textual order
        for pos in pending:
            lit = body[pos]
            if isinstance(lit, Literal):
                if lit.negated and _negative_schedulable(lit, bound,
                                                         ad_vars):
                    chosen = (pos, "negation", "filter", 1.0)
                    break
            elif _builtin_schedulable(lit, bound):
                chosen = (pos, "builtin", "filter", 1.0)
                break
        if chosen is None:
            best = None
            for pos in pending:
                lit = body[pos]
                if not isinstance(lit, Literal) or lit.negated:
                    continue
                if not _positive_schedulable(lit, bound):
                    continue
                access, est = _access_path(lit, bound, stats)
                key = (bound.isdisjoint(lit.variables()), est)
                if best is None or key < best[0]:
                    best = (key, (pos, "literal", access, est))
            chosen = None if best is None else best[1]
        if chosen is None:
            stuck = ", ".join(render(body[p]) for p in pending)
            return None, steps, cost, f"unschedulable: {stuck}"
        pos, kind, access, est = chosen
        pending.remove(pos)
        order.append(pos)
        cost += est
        steps.append(LiteralStep(pos, kind, access, est,
                                 render(body[pos])))
        bound |= set(body[pos].variables())
    return tuple(order), steps, cost, None


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------
def build_plan(
    runtimes,
    facts,
    schema,
    metrics=None,
    semantics: str = "inflationary",
    stratum: int | None = None,
    program_inventors: int | None = None,
) -> Plan:
    """Plan every rule of one scope against the live ``facts``.

    ``runtimes`` are :class:`~repro.engine.step.RuleRuntime` objects
    (the safety report supplies each rule's active-domain variables);
    derivable predicates are the heads of the given rules, which is
    what the cardinality floor of :class:`Stats` keys on.

    ``program_inventors`` is the count of oid-inventing rules in the
    *whole program* (not just this scope); with two or more, every
    independence certificate degrades to a singleton (reordering could
    interleave fresh-oid numbering across strata).  ``None`` falls back
    to counting inventors in this scope.
    """
    from repro.analysis.effects import rule_effects
    from repro.analysis.interference import (
        independent_groups,
        interference_edges,
    )
    from repro.language.pretty import render_rule

    idb = {
        r.rule.head.pred
        for r in runtimes
        if isinstance(r.rule.head, Literal)
    }
    stats = Stats(facts, idb, metrics=metrics)
    plan = Plan(semantics=semantics, stratum=stratum)
    for runtime in runtimes:
        body = tuple(runtime.rule.body)
        ad_vars = set(runtime.safety.active_domain_vars)
        order, steps, cost, fallback = _order_body(
            body, set(), ad_vars, stats, repr
        )
        rp = RulePlan(
            index=runtime.index,
            label=render_rule(runtime.rule).strip(),
            order=order,
            steps=steps,
            cost=cost,
            fallback=fallback,
        )
        if order is not None:
            for pos, lit in enumerate(body):
                if not isinstance(lit, Literal) or lit.negated:
                    continue
                rest = body[:pos] + body[pos + 1:]
                seed_bound = set(lit.variables())
                sub_order, _, _, sub_fallback = _order_body(
                    rest, seed_bound, ad_vars, stats, repr
                )
                if sub_order is None or sub_fallback is not None:
                    rp.delta_orders[pos] = None
                else:
                    # map positions in ``rest`` back to body positions
                    restmap = [i for i in range(len(body)) if i != pos]
                    rp.delta_orders[pos] = tuple(
                        restmap[i] for i in sub_order
                    )
        plan.rules.append(rp)

    effects = [
        rule_effects(r.index, r.rule, r.safety, schema)
        for r in runtimes
        if r.rule.head is not None
    ]
    if program_inventors is None:
        program_inventors = sum(1 for e in effects if e.invents_oid)
    plan.independent_groups = independent_groups(
        [e.index for e in effects],
        interference_edges(effects, schema),
        multi_inventor=program_inventors >= 2,
    )
    return plan


def static_literal_order(literals) -> list[int]:
    """Join order for a list of *positive* literals with no statistics:
    bound-variable propagation with neutral cardinalities, ties in
    textual order.  The LOGRES→ALGRES compiler uses this so its join
    trees follow the same planner as the engine."""
    body = tuple(literals)
    order, _, _, fallback = _order_body(
        body, set(), set(), _NeutralStats(), repr
    )
    if order is None or fallback is not None:
        return list(range(len(body)))
    return list(order)

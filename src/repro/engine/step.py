"""One evaluation step: body valuations and Δ⁺ / Δ⁻ (Appendix B, Def. 7-8).

For every rule, the *valuation domain* is enumerated — extensions of the
empty valuation satisfying the body, minus those whose head is already
satisfiable (so a rule never re-derives, and an inventing rule never
re-invents for the same substitution).  Each surviving valuation
contributes a ground fact to Δ⁺ (positive head) or Δ⁻ (negated head,
i.e. deletion).

Oid invention (Def. 8b) is memoized per (rule, body substitution) in an
:class:`InventionRegistry` that persists across steps, ensuring the
deterministic, determinate-up-to-renaming semantics.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.errors import EvaluationError, SafetyError
from repro.engine.activedomain import ActiveDomains
from repro.engine.guards import ResourceGuard
from repro.engine.valuation import (
    SELF_LABEL,
    Bindings,
    MatchContext,
    Unbound,
    as_oid,
    match_literal,
    resolve_term,
    values_unify,
)
from repro.language.analysis import SafetyReport, VarInfo, negation_ready
from repro.language.ast import (
    BuiltinLiteral,
    Constant,
    Literal,
    Rule,
    Term,
    Var,
)
from repro.language.builtins import builtin_ready, get_builtin
from repro.storage.factset import Fact, FactSet
from repro.types.descriptors import NamedType
from repro.values.complex import TupleValue, Value
from repro.values.oids import Oid, OidGenerator


@dataclass
class RuleRuntime:
    """A rule with its precomputed static analysis results.

    The planner attaches per-run evaluation state: ``plan`` (a
    :class:`~repro.engine.planner.RulePlan` whose literal order the body
    evaluator follows) and ``compiled`` (a
    :class:`~repro.engine.compile.CompiledRule`, when the rule is in
    the compilable fragment), which replaces the generic body evaluator
    from the rule's first valuation.
    """

    index: int
    rule: Rule
    safety: SafetyReport
    varinfo: dict[Var, VarInfo]
    plan: object | None = None
    compiled: object | None = None


class InventionRegistry:
    """Persistent memo of invented oids (Def. 8b uniqueness condition)."""

    def __init__(self, oidgen: OidGenerator):
        self._oidgen = oidgen
        self._memo: dict[tuple, Oid] = {}

    def oid_for(self, rule_index: int, bindings: Bindings) -> tuple[Oid, bool]:
        """The invented oid for this (rule, substitution); (oid, fresh?)."""
        key = (
            rule_index,
            tuple(sorted((v.name, b) for v, b in bindings.items())),
        )
        existing = self._memo.get(key)
        if existing is not None:
            return existing, False
        oid = self._oidgen.fresh()
        self._memo[key] = oid
        return oid, True

    @property
    def count(self) -> int:
        return len(self._memo)


@dataclass
class StepDeltas:
    """The Δ⁺ / Δ⁻ produced by one application of every rule."""

    plus: FactSet = field(default_factory=FactSet)
    minus: FactSet = field(default_factory=FactSet)
    inventions: int = 0

    @property
    def is_empty(self) -> bool:
        return self.plus.count() == 0 and self.minus.count() == 0


@dataclass
class NetChange:
    """The *net* effect of one in-place delta application.

    ``added`` and ``removed`` are exact: a fact inserted by Δ⁺ and
    deleted again by Δ⁻ in the same step appears in neither, and a class
    fact whose o-value is overwritten contributes the old fact to
    ``removed`` and the new one to ``added``.  ``is_empty`` is therefore
    equivalent to ``new state == old state`` — the fixpoint test — and
    ``len(added) - len(removed)`` is the fact-count drift, so neither
    needs an O(|F|) comparison or recount.
    """

    added: list[Fact] = field(default_factory=list)
    removed: list[Fact] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    @property
    def count_drift(self) -> int:
        return len(self.added) - len(self.removed)

    def predicates(self) -> set[str]:
        return {f.pred for f in self.added} | {
            f.pred for f in self.removed
        }


# ---------------------------------------------------------------------------
# body evaluation
# ---------------------------------------------------------------------------
def evaluate_body(
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
    seed: Bindings | None = None,
    body: tuple | None = None,
    ordered: bool = False,
):
    """Enumerate valuations satisfying the rule body.

    When the runtime carries a plan (or ``ordered`` says the caller
    pre-ordered ``body``), literals run in the planned order.  Otherwise
    they are scheduled greedily: at each point the first *ready* pending
    literal runs — positive ordinary literals are always ready,
    built-ins once their inputs are resolvable, negated literals once all
    their variables are bound or enumerable from the active domain.
    """
    if body is None:
        plan = runtime.plan
        if plan is not None and plan.order is not None:
            rule_body = runtime.rule.body
            pending = [rule_body[i] for i in plan.order]
            return _eval_ordered(pending, 0, dict(seed or {}), runtime,
                                 ctx, domains)
        pending = list(runtime.rule.body)
    else:
        pending = list(body)
        if ordered:
            return _eval_ordered(pending, 0, dict(seed or {}), runtime,
                                 ctx, domains)
    return _eval_pending(pending, dict(seed or {}), runtime, ctx, domains)


def _eval_ordered(
    pending: list,
    idx: int,
    bindings: Bindings,
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
):
    """Planned-order evaluation: no per-step readiness scan — the
    planner already proved each literal schedulable at its position."""
    if idx == len(pending):
        yield bindings
        return
    literal = pending[idx]
    idx += 1
    for extended in _extensions(literal, bindings, runtime, ctx, domains):
        yield from _eval_ordered(pending, idx, extended, runtime, ctx,
                                 domains)


def _eval_pending(
    pending: list,
    bindings: Bindings,
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
):
    if not pending:
        yield bindings
        return
    idx = _pick_ready(pending, bindings, runtime, ctx)
    literal = pending[idx]
    rest = pending[:idx] + pending[idx + 1:]
    for extended in _extensions(literal, bindings, runtime, ctx, domains):
        yield from _eval_pending(rest, extended, runtime, ctx, domains)


def _extensions(
    literal,
    bindings: Bindings,
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
):
    """The extensions of ``bindings`` satisfying one body literal
    (Def. 7, one literal at a time).  Returns the solver's own iterator,
    so the dispatch adds no generator frame."""
    if isinstance(literal, Literal):
        if literal.negated:
            return _solve_negative(literal, bindings, runtime, ctx, domains)
        return match_literal(literal, bindings, ctx)
    return _solve_builtin(literal, bindings, ctx)


def _pick_ready(
    pending: list, bindings: Bindings, runtime: RuleRuntime, ctx: MatchContext
) -> int:
    """Greedy scheduling: negated literals and built-ins run as soon as
    they are ready (they only filter or bind cheaply); among positive
    ordinary literals, the most *bound* one runs first so the hash
    indexes get a key to look up."""
    best_positive = -1
    best_score = -1
    for i, literal in enumerate(pending):
        if isinstance(literal, Literal):
            if not literal.negated:
                score = _boundness(literal, bindings)
                if score > best_score:
                    best_positive, best_score = i, score
                continue
            if negation_ready(literal, bindings,
                              runtime.safety.active_domain_vars):
                return i
        elif _builtin_ready(literal, bindings, ctx):
            return i
    if best_positive >= 0:
        return best_positive
    raise EvaluationError(
        f"no literal of {pending!r} can make progress with bindings"
        f" {sorted(v.name for v in bindings)}; the rule is unsafe"
    )


def _boundness(literal: Literal, bindings: Bindings) -> int:
    """How selective a positive literal is under the current bindings:
    constants and bound variables at labeled/self positions count."""
    score = 0
    args = literal.args
    if args.self_term is not None:
        if not isinstance(args.self_term, Var) or \
                args.self_term in bindings:
            score += 4  # a bound oid is a direct lookup
    for _, term in args.labeled:
        if isinstance(term, Constant):
            score += 2
        elif isinstance(term, Var) and term in bindings:
            score += 2
        elif not isinstance(term, Var) and all(
            v in bindings for v in term.variables()
        ):
            score += 1
    if args.tuple_var is not None and args.tuple_var in bindings:
        score += 3
    return score


def _builtin_ready(
    blit: BuiltinLiteral, bindings: Bindings, ctx: MatchContext
) -> bool:
    def resolvable(t: Term) -> bool:
        try:
            resolve_term(t, bindings, ctx)
            return True
        except Unbound:
            return False
        except EvaluationError:
            return False

    return builtin_ready(blit, resolvable)


def _solve_builtin(
    blit: BuiltinLiteral, bindings: Bindings, ctx: MatchContext
):
    builtin = get_builtin(blit.name)
    resolved = []
    for term in blit.args:
        try:
            resolved.append(resolve_term(term, bindings, ctx))
        except Unbound:
            if isinstance(term, Var):
                resolved.append(term)
            else:
                raise
    if blit.negated:
        if any(isinstance(r, Var) for r in resolved):
            raise EvaluationError(
                f"negated builtin {blit!r} applied to unbound variable"
            )
        if not any(True for _ in builtin.solve(resolved)):
            yield bindings
        return
    for extra in builtin.solve(resolved):
        out = dict(bindings)
        out.update(extra)
        yield out


def _solve_negative(
    literal: Literal,
    bindings: Bindings,
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
):
    """Valuations surviving a negated ordinary literal.

    Unbound variables (necessarily flagged as active-domain variables by
    the safety analysis) are enumerated over the active domain of their
    inferred type; each full valuation survives iff no fact matches.
    """
    unbound = [
        v for v in dict.fromkeys(literal.variables()) if v not in bindings
    ]
    if not unbound:
        positive = Literal(literal.pred, literal.args, negated=False)
        if next(match_literal(positive, bindings, ctx), None) is None:
            yield bindings
        return
    value_spaces = []
    for var in unbound:
        info = runtime.varinfo.get(var)
        if info is None or not info.types:
            raise EvaluationError(
                f"cannot determine the type of active-domain variable"
                f" {var!r} in {literal!r}"
            )
        value_spaces.append(list(domains.enumerate(info.types[0])))
    positive = Literal(literal.pred, literal.args, negated=False)
    for combo in itertools.product(*value_spaces):
        candidate = dict(bindings)
        candidate.update(zip(unbound, combo))
        if next(match_literal(positive, candidate, ctx), None) is None:
            yield candidate


# ---------------------------------------------------------------------------
# body probing (why-not analysis)
# ---------------------------------------------------------------------------
@dataclass
class BodyProbe:
    """The best near-miss found when probing a rule body.

    ``satisfiable`` means a full valuation of the body exists under the
    seed; otherwise ``failed`` is the first literal of the *deepest*
    partial valuation reached that admitted no extension, ``matched``
    counts the literals satisfied on that path, and ``bindings`` is the
    live valuation at the point of failure.
    """

    matched: int
    total: int
    failed: object | None
    bindings: Bindings
    satisfiable: bool
    exhausted: bool = False  # the search budget ran out first

    @property
    def failed_repr(self) -> str | None:
        return repr(self.failed) if self.failed is not None else None


def probe_body(
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
    seed: Bindings | None = None,
    budget: int = 10_000,
) -> BodyProbe:
    """Replay a rule body and report how far it gets (Def. 7, replayed).

    The same greedy literal scheduling as :func:`evaluate_body`, but
    instead of enumerating conclusions it tracks the deepest point any
    branch reached before failing — the *best near-miss valuation* that
    why-not provenance reports.  The DFS is bounded by ``budget``
    visited states so pathological joins cannot hang a debugging
    command.
    """
    pending = list(runtime.rule.body)
    total = len(pending)
    seed = dict(seed or {})
    best = {"matched": -1, "failed": None, "bindings": seed}
    state = {"budget": budget}

    def record(depth: int, literal, bindings: Bindings) -> None:
        if depth > best["matched"]:
            best["matched"] = depth
            best["failed"] = literal
            best["bindings"] = bindings

    def walk(pending: list, bindings: Bindings, depth: int) -> bool:
        if not pending:
            best["bindings"] = bindings
            return True
        if state["budget"] <= 0:
            return False
        state["budget"] -= 1
        try:
            idx = _pick_ready(pending, bindings, runtime, ctx)
        except EvaluationError:
            record(depth, pending[0], bindings)
            return False
        literal = pending[idx]
        rest = pending[:idx] + pending[idx + 1:]
        extended_any = False
        for extended in _probe_extensions(literal, bindings, runtime,
                                          ctx, domains):
            extended_any = True
            if walk(rest, extended, depth + 1):
                return True
            if state["budget"] <= 0:
                break
        if not extended_any:
            record(depth, literal, bindings)
        return False

    satisfiable = walk(pending, seed, 0)
    if satisfiable:
        return BodyProbe(total, total, None, best["bindings"], True)
    matched = max(best["matched"], 0)
    return BodyProbe(matched, total, best["failed"], best["bindings"],
                     False, exhausted=state["budget"] <= 0)


def _probe_extensions(
    literal,
    bindings: Bindings,
    runtime: RuleRuntime,
    ctx: MatchContext,
    domains: ActiveDomains,
):
    """Extensions of one body literal, with every evaluation failure
    (unbound builtin input, untypeable negation variable) folded into
    "no extension" so the probe reports it as the failing literal."""
    from repro.errors import LogresError

    try:
        yield from _extensions(literal, bindings, runtime, ctx, domains)
    except (LogresError, Unbound):
        return


# ---------------------------------------------------------------------------
# head processing
# ---------------------------------------------------------------------------
def process_head(
    runtime: RuleRuntime,
    bindings: Bindings,
    ctx: MatchContext,
    deltas: StepDeltas,
    inventions: InventionRegistry,
    skip_satisfied: bool = True,
    obs=None,
    *,
    guard: ResourceGuard,
) -> list[Fact]:
    """Turn one body valuation into a Δ⁺ or Δ⁻ contribution.

    ``skip_satisfied`` applies the valuation-domain condition of Def. 7
    (drop valuations whose head is already satisfiable); the
    non-inflationary semantics disables it, since each step rebuilds the
    state from scratch.  ``obs`` (an
    :class:`repro.observability.Instrumentation`) receives one
    rule-fired notification per valuation — that event stream is what
    :class:`repro.engine.trace.Tracer` records provenance from.
    ``guard`` is the run's :class:`ResourceGuard`: its fact-size budget
    is checked per derived fact when set, its invention budget at every
    fresh oid.  Returns the facts this valuation contributed (empty for
    a duplicate).
    """
    head = runtime.rule.head
    assert isinstance(head, Literal)
    if ctx.schema.is_class(head.pred):
        if head.negated:
            contributed = _delete_object(head, bindings, ctx, deltas)
        else:
            contributed = _derive_object(
                runtime, head, bindings, ctx, deltas, inventions,
                skip_satisfied, obs, guard,
            )
    else:
        if head.negated:
            contributed = _delete_tuples(head, bindings, ctx, deltas)
        else:
            contributed = _derive_tuple(head, bindings, ctx, deltas,
                                        skip_satisfied, guard)
    if obs is not None:
        obs.rule_fired(runtime, contributed, bindings, head.negated)
    return contributed


def _head_attributes(
    head: Literal, bindings: Bindings, ctx: MatchContext
) -> TupleValue:
    """The attribute tuple described by the head's labeled args and tuple
    variable, coerced field-wise against the declared types."""
    eff = ctx.schema.effective_type(head.pred)
    out: dict[str, Value] = {}
    if head.args.tuple_var is not None:
        try:
            whole = resolve_term(head.args.tuple_var, bindings, ctx)
        except Unbound:
            whole = None
        if whole is not None:
            if not isinstance(whole, TupleValue):
                raise EvaluationError(
                    f"tuple variable {head.args.tuple_var!r} bound to"
                    f" non-tuple {whole!r}"
                )
            for label in eff.labels:
                if label in whole:
                    out[label] = whole[label]
    for label, term in head.args.labeled:
        value = resolve_term(term, bindings, ctx)
        out[label] = _coerce_field(value, head.pred, label, ctx)
    return TupleValue(out)


def _coerce_field(
    value: Value, pred: str, label: str, ctx: MatchContext
) -> Value:
    declared = ctx.schema.field_type(pred, label)
    if isinstance(declared, NamedType) and ctx.schema.is_class(
        declared.name
    ):
        oid = as_oid(value)
        if oid is None:
            raise EvaluationError(
                f"field {label!r} of {pred!r} references class"
                f" {declared.name!r} but got non-object value {value!r}"
            )
        return oid
    return value


def _head_satisfied(
    head: Literal, attrs: TupleValue, oid: Oid | None, ctx: MatchContext
) -> bool:
    """Is there an extension of the valuation satisfying the head already?

    With a known oid: the stored o-value must cover the head attributes.
    Without (invention pending): any object with matching attributes
    counts (Def. 7's existential extension over the head oid variable).
    """
    if oid is not None:
        stored = ctx.facts.value_of(head.pred, oid)
        if stored is None:
            return False
        return all(
            label in stored and values_unify(stored[label], value)
            for label, value in attrs.items
        )
    if ctx.use_indexes:
        # fast path: a non-oid attribute value only unifies with an
        # equal stored value, so the (pred, label, value) hash index
        # yields exactly the candidate objects — without it, every
        # invention probe scans the whole class (quadratic in the
        # invented population).  Probe every scalar position and keep
        # the smallest bucket: selectivity varies wildly across labels.
        candidates = None
        for label, value in attrs.items:
            if isinstance(value, (Oid, TupleValue)):
                continue
            bucket = ctx.facts.lookup(head.pred, label, value)
            if candidates is None or len(bucket) < len(candidates):
                candidates = bucket
                if not candidates:
                    return False
        if candidates is not None:
            return any(
                all(
                    lbl in fact.value
                    and values_unify(fact.value[lbl], val)
                    for lbl, val in attrs.items
                )
                for fact in candidates
            )
    for fact in ctx.facts.facts_of(head.pred):
        if all(
            label in fact.value and values_unify(fact.value[label], value)
            for label, value in attrs.items
        ):
            return True
    return False


def _derive_object(
    runtime: RuleRuntime,
    head: Literal,
    bindings: Bindings,
    ctx: MatchContext,
    deltas: StepDeltas,
    inventions: InventionRegistry,
    skip_satisfied: bool,
    obs,
    guard: ResourceGuard,
) -> list[Fact]:
    attrs = _head_attributes(head, bindings, ctx)
    if guard.max_fact_size is not None:
        guard.check_fact_size(head.pred, attrs)
    oid: Oid | None = None
    for term in (head.args.self_term, head.args.tuple_var):
        if term is None:
            continue
        try:
            oid = as_oid(resolve_term(term, bindings, ctx))
        except Unbound:
            continue
        if oid is not None:
            break
    if oid is None:
        # oid invention (safety rule 1): skip if the head is already
        # satisfiable, otherwise mint (or re-use) the oid for this
        # substitution.
        if skip_satisfied and _head_satisfied(head, attrs, None, ctx):
            return []
        oid, fresh = inventions.oid_for(runtime.index, bindings)
        if fresh:
            deltas.inventions += 1
            # invention-site budget check: a runaway inventing rule is
            # stopped mid-iteration, not one iteration late
            guard.on_invention(inventions.count)
            if obs is not None:
                obs.invention(runtime, oid)
    else:
        if oid.is_nil:
            raise EvaluationError(
                f"cannot insert the nil oid into class {head.pred!r}"
            )
        if skip_satisfied and _head_satisfied(head, attrs, oid, ctx):
            return []
        stored = ctx.facts.value_of(head.pred, oid)
        if stored is not None:
            attrs = stored.merged(attrs)
        else:
            # carry over attributes known in other classes of the
            # hierarchy (isa oid sharing)
            for other in ctx.schema.class_names:
                other_val = ctx.facts.value_of(other, oid)
                if other_val is not None:
                    eff_labels = set(
                        ctx.schema.effective_type(head.pred).labels
                    )
                    carried = {
                        k: v for k, v in other_val.items if k in eff_labels
                    }
                    attrs = TupleValue(carried).merged(attrs)
    existing_delta = deltas.plus.value_of(head.pred, oid)
    if existing_delta is not None:
        attrs = existing_delta.merged(attrs)
    deltas.plus.add_object(head.pred, oid, attrs)
    return [Fact(head.pred, attrs, oid)]


def _delete_object(
    head: Literal, bindings: Bindings, ctx: MatchContext, deltas: StepDeltas
) -> list[Fact]:
    oid: Oid | None = None
    for term in (head.args.self_term, head.args.tuple_var):
        if term is None:
            continue
        try:
            oid = as_oid(resolve_term(term, bindings, ctx))
        except Unbound as exc:
            raise SafetyError(
                f"deletion head {head!r} has unbound oid variable"
                f" {exc.var!r}"
            ) from None
        if oid is not None:
            break
    if oid is None:
        raise SafetyError(
            f"deletion from class {head.pred!r} requires a bound self or"
            " tuple variable"
        )
    stored = ctx.facts.value_of(head.pred, oid)
    if stored is None:
        return []
    for label, term in head.args.labeled:
        value = resolve_term(term, bindings, ctx)
        if label not in stored or not values_unify(stored[label], value):
            return []
    deltas.minus.add_object(head.pred, oid, stored)
    return [Fact(head.pred, stored, oid)]


def _derive_tuple(
    head: Literal,
    bindings: Bindings,
    ctx: MatchContext,
    deltas: StepDeltas,
    skip_satisfied: bool,
    guard: ResourceGuard,
) -> list[Fact]:
    attrs = _head_attributes(head, bindings, ctx)
    if guard.max_fact_size is not None:
        guard.check_fact_size(head.pred, attrs)
    fact = Fact(head.pred, attrs)
    if skip_satisfied and fact in ctx.facts:
        return []
    deltas.plus.add(fact)
    return [fact]


def make_round_emit(pred, build_value, facts, fresh, seen, guard):
    """The head sink of one rule for one semi-naive round: each
    body valuation's head value (a positive association of ``pred``)
    joins ``fresh`` unless the live state or this round already has it.

    ``build_value`` maps what the body passes to ``emit`` to the head's
    attribute tuple: a compiled rule's register file
    (``CompiledRule.head_build_value``) or a generic rule's bindings
    (:func:`_head_attributes`).  ``seen`` maps head predicate → values
    emitted this round, shared by every rule of the round; the dedup
    probes run on the *value* (whose hash is cached) and the ``Fact``
    wrapper is only built for survivors.  Membership in the live state
    is one set probe on the predicate's table — snapshotted here, which
    is safe because :meth:`~repro.engine.fixpoint.Engine._run_seminaive`
    adds the survivors to the live state only at round end."""
    append = fresh.append
    table = facts._assoc.get(pred)
    seen_values = seen.setdefault(pred, set())
    seen_add = seen_values.add
    if guard.max_fact_size is None:
        if table is None:
            def emit(regs):
                value = build_value(regs)
                if value in seen_values:
                    return
                seen_add(value)
                append(Fact(pred, value))
            return emit

        def emit(regs):
            value = build_value(regs)
            if value in table or value in seen_values:
                return
            seen_add(value)
            append(Fact(pred, value))
        return emit

    def emit(regs):
        value = build_value(regs)
        guard.check_fact_size(pred, value)
        if (table is not None and value in table) \
                or value in seen_values:
            return
        seen_add(value)
        append(Fact(pred, value))
    return emit


def _delete_tuples(
    head: Literal, bindings: Bindings, ctx: MatchContext, deltas: StepDeltas
) -> list[Fact]:
    attrs = _head_attributes(head, bindings, ctx)
    eff_labels = ctx.schema.effective_type(head.pred).labels
    if set(attrs.labels) >= set(eff_labels):
        fact = Fact(head.pred, attrs.project(eff_labels))
        deltas.minus.add(fact)
        return [fact]
    # partial deletion pattern: delete every matching stored tuple
    out = []
    for fact in ctx.facts.facts_of(head.pred):
        if all(
            label in fact.value and values_unify(fact.value[label], value)
            for label, value in attrs.items
        ):
            deltas.minus.add(fact)
            out.append(fact)
    return out


# ---------------------------------------------------------------------------
# full step
# ---------------------------------------------------------------------------
def compute_deltas(
    runtimes: list[RuleRuntime],
    ctx: MatchContext,
    inventions: InventionRegistry,
    skip_satisfied: bool = True,
    obs=None,
    domains: ActiveDomains | None = None,
    *,
    guard: ResourceGuard,
) -> StepDeltas:
    """Apply every rule once against the current fact set.

    ``domains`` lets the incremental engine pass a persistent
    :class:`ActiveDomains` (invalidated per changed predicate) instead of
    rebuilding the caches from scratch each step.  ``obs`` (an enabled
    :class:`repro.observability.Instrumentation`, or None) receives
    per-rule wall time and the rule-fired stream.  Whether a rule runs
    compiled and whether it is timed are decided once per rule, never
    per valuation; an instrumented run takes the generic path, whose
    every valuation the event stream must see.  ``guard`` is the run's
    :class:`ResourceGuard` (see :func:`process_head`).
    """
    deltas = StepDeltas()
    if domains is None:
        domains = ActiveDomains(ctx.facts, ctx.schema)
    clock = time.perf_counter
    for runtime in runtimes:
        if runtime.rule.head is None:
            continue  # denials: evaluated by the consistency checker
        compiled = runtime.compiled
        if obs is None and compiled is not None:
            # compiled fast path: the closure chain derives the same
            # ground facts as evaluate_body + process_head
            compiled.run_full(ctx, compiled.make_delta_emit(
                ctx, deltas, guard, skip_satisfied
            ))
            continue
        started = clock()
        for bindings in evaluate_body(runtime, ctx, domains):
            process_head(runtime, bindings, ctx, deltas, inventions,
                         skip_satisfied, obs, guard=guard)
        if obs is not None:
            obs.rule_evaluated(runtime, clock() - started)
    return deltas


def apply_deltas(current: FactSet, deltas: StepDeltas) -> FactSet:
    """The ``VAR'`` formula of the one-step inflationary operator:

    ``((F ⊕ Δ⁺) − Δ⁻) ⊕ (F ∩ Δ⁺ ∩ Δ⁻)``

    Reference (copying) implementation: builds a fresh fact set in
    O(|F|).  The incremental kernel uses :func:`apply_deltas_inplace`,
    which computes the identical state in O(|Δ|).
    """
    survivors = current.intersection(deltas.plus).intersection(deltas.minus)
    return current.compose(deltas.plus).minus(deltas.minus).compose(
        survivors
    )


def apply_deltas_inplace(facts: FactSet, deltas: StepDeltas) -> NetChange:
    """Apply the ``VAR'`` formula by mutating ``facts``, in O(|Δ|).

    Equivalent to ``facts = apply_deltas(facts, deltas)`` (the same
    composition order, so o-value conflicts resolve identically), but
    only the entries named by Δ⁺ / Δ⁻ are touched and the returned
    :class:`NetChange` reports the exact difference between the old and
    new states — empty net change *is* the fixpoint condition.
    """
    plus_facts = list(deltas.plus.facts())
    minus_facts = list(deltas.minus.facts())
    # F ∩ Δ⁺ ∩ Δ⁻, evaluated over the delta (small) side
    survivors = [
        f for f in plus_facts if f in deltas.minus and f in facts
    ]
    # snapshot the touched entries so the net change is exact
    before_class: dict[tuple[str, Oid], TupleValue | None] = {}
    before_assoc: dict[tuple[str, TupleValue], bool] = {}
    for f in itertools.chain(plus_facts, minus_facts):
        if f.oid is not None:
            key = (f.pred, f.oid)
            if key not in before_class:
                before_class[key] = facts.value_of(f.pred, f.oid)
        else:
            akey = (f.pred, f.value)
            if akey not in before_assoc:
                before_assoc[akey] = f in facts
    for f in plus_facts:  # F ⊕ Δ⁺ (right bias overwrites o-values)
        facts.add(f)
    for f in minus_facts:  # − Δ⁻ (exact match)
        facts.discard(f)
    for f in survivors:  # ⊕ (F ∩ Δ⁺ ∩ Δ⁻)
        facts.add(f)
    net = NetChange()
    for (pred, oid), old in before_class.items():
        new = facts.value_of(pred, oid)
        if new == old:
            continue
        if old is not None:
            net.removed.append(Fact(pred, old, oid))
        if new is not None:
            net.added.append(Fact(pred, new, oid))
    for (pred, value), was_present in before_assoc.items():
        now_present = Fact(pred, value) in facts
        if now_present and not was_present:
            net.added.append(Fact(pred, value))
        elif was_present and not now_present:
            net.removed.append(Fact(pred, value))
    return net

"""Fixpoint computation: inflationary, stratified, non-inflationary.

The **inflationary** deterministic semantics (Appendix B) iterates the
one-step operator ``Fⁱ⁺¹ = ((Fⁱ ⊕ Δ⁺) − Δ⁻) ⊕ (Fⁱ ∩ Δ⁺ ∩ Δ⁻)`` from
``F⁰ = E`` until ``Fⁱ⁺¹ = Fⁱ``.  It gives a *uniform* meaning to every
LOGRES program, stratified or not.

The **stratified** semantics evaluates the strata produced by
:func:`repro.language.analysis.stratify` in order, running the
inflationary operator within each stratum — which yields the perfect
model for stratified programs (Section 3.1).

The **non-inflationary** semantics recomputes ``Fⁱ⁺¹`` from the
extensional database and the facts derivable from ``Fⁱ`` alone; it may
oscillate, which is detected and reported.

A **semi-naive** fast path evaluates every stratum whose rules have
positive association heads, no oid invention, no active-domain
variables and no data-function reads, and whose negated literals read
only predicates the stratum does not define: each iteration only
re-joins rule bodies through the facts that are new since the previous
iteration.  One driver runs every such scope; within it each rule
runs its compiled body (:mod:`repro.engine.compile`) when the planner
built one and the generic body evaluator otherwise, in the same
rounds.  The negated predicates are complete in lower strata, so the
rounds compute the same fixpoint, in the same number of iterations, as
the inflationary operator (property-tested against the reference
kernel, which keeps the general path in every stratum).  Under
inflationary semantics the whole program is one scope, and it takes the
fast path only when it is also negation-free: its instance is then
monotone in the EDB, which is what :meth:`Engine.extend` relies on.

A scope that reads none of its own predicates, deletes nothing and
whose class heads all invent their oids reaches its fixpoint after one
round of the general path: a second round would see the same
valuations over the same facts, every head already satisfied.

Termination is undecidable (Appendix B), so every loop is guarded by the
iteration / fact / invention budgets of :class:`EvalConfig` and raises
:class:`~repro.errors.NonTerminationError` when exceeded.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import (
    EvalBudgetExceeded,
    EvaluationError,
    NonTerminationError,
)
from repro.observability.instrument import (
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from repro.engine.activedomain import ActiveDomains
from repro.engine.guards import ResourceGuard
from repro.engine.step import (
    InventionRegistry,
    RuleRuntime,
    apply_deltas,
    apply_deltas_inplace,
    compute_deltas,
    evaluate_body,
    make_round_emit,
)
from repro.engine.valuation import MatchContext, match_fact
from repro.testing.faults import FAULTS
from repro.analysis.driver import analyze_or_raise
from repro.language.analysis import (
    AnalyzedProgram,
    check_types,
)
from repro.language.ast import (
    ArithExpr,
    BuiltinLiteral,
    CollectionTerm,
    FunctionApp,
    Literal,
    Program,
    Rule,
)
from repro.storage.factset import Fact, FactSet
from repro.types.schema import Schema
from repro.values.oids import OidGenerator


class Semantics(enum.Enum):
    """Which rule semantics a module application requests (Section 1:
    databases are *parametric with respect to the semantics* of rules)."""

    INFLATIONARY = "inflationary"
    STRATIFIED = "stratified"
    NONINFLATIONARY = "noninflationary"


@dataclass
class EvalConfig:
    """Budgets and switches for fixpoint evaluation.

    ``incremental`` selects the O(|Δ|) kernel: deltas are applied to the
    working fact set in place (:func:`apply_deltas_inplace`), fixpoint
    detection is "the net change is empty", and indexes / active domains
    persist across iterations.  ``incremental=False`` keeps the
    reference copy-per-iteration implementation, which the property
    suite pins the kernel against.

    ``guard`` attaches a :class:`~repro.engine.guards.ResourceGuard`:
    wall-clock timeout, live-fact / invented-oid / fact-size budgets and
    cooperative cancellation, checked at every iteration boundary and at
    invention sites.  A breach raises
    :class:`~repro.errors.EvalBudgetExceeded` carrying the partial stats
    and a consistent partial-state snapshot (``docs/ROBUSTNESS.md``).

    ``plan`` runs the cost-based planner
    (:mod:`repro.engine.planner`) before each fixpoint scope: rule
    bodies are reordered from live index statistics and, on the
    incremental kernel, rules in the compilable fragment are
    specialized into closures (:mod:`repro.engine.compile`) that run
    from their first valuation.  ``plan=False`` restores the dynamic
    greedy scheduler everywhere.
    """

    max_iterations: int = 10_000
    max_facts: int = 1_000_000
    max_inventions: int = 100_000
    seminaive: bool = True
    use_indexes: bool = True
    incremental: bool = True
    plan: bool = True
    guard: ResourceGuard | None = None


@dataclass
class EvalStats:
    """Observability: what the last run did."""

    iterations: int = 0
    facts_derived: int = 0
    inventions: int = 0
    used_seminaive: bool = False
    strata: int = 1
    time_total: float = 0.0
    time_per_iteration: list[float] = field(default_factory=list)


class Engine:
    """Evaluates one analyzed program over extensional databases."""

    def __init__(
        self,
        schema: Schema,
        program: Program,
        config: EvalConfig | None = None,
        oidgen: OidGenerator | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self.config = config or EvalConfig()
        self.obs = instrumentation or NULL_INSTRUMENTATION
        # collect-all analysis: an error raises the legacy exception, but
        # with every error of the run attached as ``exc.diagnostics``
        self.analysis: AnalyzedProgram = analyze_or_raise(program, schema)
        self.schema = self.analysis.schema
        self.oidgen = oidgen or OidGenerator()
        self.runtimes = [
            RuleRuntime(
                index=i,
                rule=rule,
                safety=self.analysis.safety[i],
                varinfo=check_types(rule, self.schema),
            )
            for i, rule in enumerate(self.analysis.rules)
        ]
        self.stats = EvalStats()
        #: the plans chosen by the last run (one per fixpoint scope)
        self.plans: list = []
        #: oid-inventing rules in the whole program — the independence
        #: certificates degrade to singletons when there are two or
        #: more (fresh-oid numbering becomes order-sensitive)
        self._inventors = sum(
            1 for r in self.runtimes
            if r.rule.head is not None and r.safety.invents_oid
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        edb: FactSet,
        semantics: Semantics = Semantics.INFLATIONARY,
        tracer=None,
    ) -> FactSet:
        """Compute the instance of ``(E, R, S)`` under the given semantics.

        Passing a :class:`repro.engine.trace.Tracer` records derivation
        provenance (the tracer consumes the engine's event stream).  Any
        attached instrumentation — a tracer or an
        :class:`~repro.observability.Instrumentation` — forces the
        general (non-semi-naive) path so every rule firing is observed.
        """
        return self._evaluate(
            semantics, tracer,
            lambda obs: self._run(edb, semantics, obs),
        )

    def extendable(self, semantics: Semantics) -> bool:
        """Whether :meth:`extend` computes this program's instance.

        It does for the positive, invention-free, class-head-free
        fragment under inflationary or stratified semantics (the two
        coincide there): the instance is the least fixpoint, which is
        monotone in the EDB, so ``I(E1) = I(E0)`` plus what the facts
        ``E1 − E0`` derive."""
        return (
            semantics in (Semantics.INFLATIONARY, Semantics.STRATIFIED)
            and not self.obs.enabled
            and self.config.seminaive
            and self._monotone(self._head_rules())
        )

    def extend(
        self,
        base: FactSet,
        inserted: Iterable[Fact],
        edb: FactSet,
        semantics: Semantics = Semantics.INFLATIONARY,
    ) -> FactSet:
        """The instance of ``edb`` continued from ``base``.

        ``base`` is this program's instance over an EDB ``E0`` and
        ``edb`` is ``E0`` plus the ``inserted`` facts; only legal where
        :meth:`extendable` holds.  The semi-naive delta rounds run from
        a copy of ``base`` (never mutated), seeded with the inserted
        facts it lacks, under the same guard checks, fact budgets and
        plans as :meth:`run`; the oid generator is reserved above
        ``edb`` exactly as a full run reserves it."""
        return self._evaluate(
            semantics, None,
            lambda obs: self._extend(base, inserted, edb, semantics),
        )

    def _evaluate(self, semantics: Semantics, tracer, body) -> FactSet:
        """The run boundary shared by :meth:`run` and :meth:`extend`:
        fresh stats and plans, guard arming, breach stats, timing."""
        self.stats = EvalStats()
        self.plans = []
        obs = self.obs
        if tracer is not None:
            obs = obs.with_extra_sink(tracer)
        if obs.enabled:
            obs.run_started(semantics.value, len(self.runtimes))
        if self.config.guard is not None:
            # flush-on-breach: an EvalBudgetExceeded abort still leaves
            # every attached trace ending on a complete JSON line
            self.config.guard.arm(
                on_breach=obs.flush if obs.enabled else None
            )
        started = time.perf_counter()
        facts_out = 0
        try:
            result = body(obs)
            facts_out = result.count()
            return result
        except EvalBudgetExceeded as exc:
            # kernels attach the consistent snapshot; the run boundary
            # guarantees the partial stats are always present
            raise exc.attach(stats=self.stats)
        finally:
            self.stats.time_total = time.perf_counter() - started
            if obs.enabled:
                obs.run_finished(
                    self.stats.iterations,
                    facts_out or self.stats.facts_derived,
                    self.stats.inventions,
                    self.stats.time_total,
                )

    def _run(
        self,
        edb: FactSet,
        semantics: Semantics,
        obs: Instrumentation,
    ) -> FactSet:
        self._reserve(edb)
        inventions = InventionRegistry(self.oidgen)
        rules = self._head_rules()
        if semantics is Semantics.INFLATIONARY:
            facts = edb.copy()
            if obs.enabled:
                facts.index_stats = obs.index_stats
            self._attach_plans(rules, facts, obs, semantics)
            if not obs.enabled and self.config.seminaive and \
                    self._monotone(rules):
                self.stats.used_seminaive = True
                return self._run_seminaive(facts, rules)
            return self._run_inflationary(facts, rules, inventions, obs)
        if semantics is Semantics.STRATIFIED:
            strata = stratify_runtimes(rules, self.analysis)
            self.stats.strata = len(strata)
            facts = edb.copy()
            if obs.enabled:
                facts.index_stats = obs.index_stats
            # the reference kernel keeps the general path per stratum
            seminaive = not obs.enabled and self.config.seminaive and \
                self.config.incremental
            for level, stratum in enumerate(strata):
                # per-stratum planning: lower strata have materialized,
                # so the statistics are live at each boundary
                self._attach_plans(facts=facts, rules=stratum, obs=obs,
                                   semantics=semantics, stratum=level)
                if obs.enabled:
                    obs.stratum_started(level, len(stratum))
                    stratum_began = time.perf_counter()
                if seminaive and self._seminaive_applicable(stratum):
                    self.stats.used_seminaive = True
                    facts = self._run_seminaive(facts, stratum)
                else:
                    facts = self._run_inflationary(facts, stratum,
                                                   inventions, obs)
                if obs.enabled:
                    obs.stratum_finished(
                        level, time.perf_counter() - stratum_began
                    )
            return facts
        if semantics is Semantics.NONINFLATIONARY:
            return self._run_noninflationary(edb, rules, inventions, obs)
        raise EvaluationError(f"unknown semantics {semantics!r}")

    def _extend(
        self,
        base: FactSet,
        inserted: Iterable[Fact],
        edb: FactSet,
        semantics: Semantics,
    ) -> FactSet:
        self._reserve(edb)
        rules = self._head_rules()
        facts = base.copy()
        delta = FactSet.from_facts(f for f in inserted if facts.add(f))
        self._attach_plans(rules, facts, NULL_INSTRUMENTATION, semantics)
        self.stats.used_seminaive = True
        return self._run_seminaive(facts, rules, delta)

    def _head_rules(self) -> list[RuleRuntime]:
        return [r for r in self.runtimes if r.rule.head is not None]

    def _attach_plans(
        self,
        rules: list[RuleRuntime],
        facts: FactSet,
        obs: Instrumentation,
        semantics: Semantics,
        stratum: int | None = None,
    ) -> None:
        """Plan one fixpoint scope and arm the runtimes.

        Compiled bodies are built only where they can legally run, and
        then run from the rule's first valuation: on the incremental
        kernel (the reference kernel, ``incremental=False``, stays the
        generic executable specification), uninstrumented (events must
        observe every valuation) and with indexes on (the closures bind
        index lookups directly).
        """
        cfg = self.config
        if not cfg.plan or not rules:
            return
        from repro.engine.compile import compile_rule
        from repro.engine.planner import build_plan

        metrics = obs.metrics if obs.enabled else None
        plan = build_plan(rules, facts, self.schema, metrics=metrics,
                          semantics=semantics.value, stratum=stratum,
                          program_inventors=self._inventors)
        self.plans.append(plan)
        compiling = cfg.incremental and cfg.use_indexes and \
            not obs.enabled
        for runtime, rule_plan in zip(rules, plan.rules):
            runtime.plan = rule_plan
            runtime.compiled = None
            if compiling and rule_plan.order is not None:
                runtime.compiled = compile_rule(runtime, rule_plan,
                                                self.schema)
        if obs.enabled:
            obs.plan_chosen(plan)
        else:
            # certificate-backed reordering: within each independent
            # group, cheapest-plan-first so low-cost rules saturate
            # their deltas early.  The groups are provably
            # order-insensitive, so results stay bit-identical (pinned
            # by the planned≡reference property suite).  Instrumented
            # runs keep source order — event streams promise it.
            self._reorder_by_certificates(rules, plan)

    @staticmethod
    def _reorder_by_certificates(rules: list[RuleRuntime], plan) -> None:
        """Reorder ``rules`` in place, cheapest plan first *within* each
        independence certificate; the slot positions of every group are
        preserved, so inter-group relative order never changes."""
        by_index = {r.index: pos for pos, r in enumerate(rules)}
        arranged = list(rules)
        for group in plan.independent_groups:
            members = [i for i in group if i in by_index]
            if len(members) < 2:
                continue
            slots = sorted(by_index[i] for i in members)
            ordered = sorted(
                (rules[by_index[i]] for i in members),
                key=lambda r: (
                    r.plan.cost if r.plan is not None else 0.0,
                    r.index,
                ),
            )
            for slot, runtime in zip(slots, ordered):
                arranged[slot] = runtime
        rules[:] = arranged

    def explain_plan(
        self, edb: FactSet, semantics: Semantics = Semantics.INFLATIONARY
    ) -> list:
        """The plans ``repro plan`` prints: every scope planned against
        the extensional database (at run time, stratified scopes re-plan
        on the live statistics of their boundary)."""
        from repro.engine.planner import build_plan

        rules = self._head_rules()
        if semantics is Semantics.STRATIFIED:
            strata = stratify_runtimes(rules, self.analysis)
            return [
                build_plan(stratum, edb, self.schema,
                           semantics=semantics.value, stratum=level,
                           program_inventors=self._inventors)
                for level, stratum in enumerate(strata)
            ]
        return [build_plan(rules, edb, self.schema,
                           semantics=semantics.value,
                           program_inventors=self._inventors)]

    @contextmanager
    def _iteration(self, obs: Instrumentation):
        """The single iteration scope: every kernel wraps one iteration
        in this, so ``stats.time_per_iteration`` has one consistent
        timing boundary (and the observability layer one emit point)."""
        number = self.stats.iterations + 1
        self.stats.iterations = number
        if FAULTS.enabled:
            FAULTS.fire("engine.iteration", guard=self.config.guard)
        if obs.enabled:
            obs.iteration_started(number)
        started = time.perf_counter()
        try:
            yield number
        finally:
            elapsed = time.perf_counter() - started
            self.stats.time_per_iteration.append(elapsed)
            if obs.enabled:
                obs.iteration_finished(number, elapsed)

    def _guard_boundary(
        self,
        guard: ResourceGuard | None,
        facts: FactSet,
        live: int,
        inventions: int,
        obs: Instrumentation = NULL_INSTRUMENTATION,
    ) -> None:
        """The per-kernel iteration-boundary guard check.  ``facts`` is
        the state of the last completed iteration, so the snapshot a
        breach carries is always consistent.  The same boundary is the
        heartbeat cadence point: live fact counts are in hand here, so
        the beacon is free when the interval has not elapsed."""
        if obs.enabled:
            obs.maybe_heartbeat(live, inventions)
        if guard is None:
            return
        try:
            guard.check_iteration(live, inventions)
        except EvalBudgetExceeded as exc:
            raise exc.attach(stats=self.stats, snapshot=facts)

    def _reserve(self, edb: FactSet) -> None:
        from repro.values.oids import Oid

        highest = edb.max_oid_number()
        if highest:
            self.oidgen.reserve_above(Oid(highest))

    # ------------------------------------------------------------------
    # inflationary (general path)
    # ------------------------------------------------------------------
    def _run_inflationary(
        self,
        facts: FactSet,
        rules: list[RuleRuntime],
        inventions: InventionRegistry,
        obs: Instrumentation = NULL_INSTRUMENTATION,
    ) -> FactSet:
        if self.config.incremental:
            return self._run_inflationary_incremental(
                facts, rules, inventions, obs
            )
        return self._run_inflationary_reference(
            facts, rules, inventions, obs
        )

    def _run_inflationary_incremental(
        self,
        facts: FactSet,
        rules: list[RuleRuntime],
        inventions: InventionRegistry,
        obs: Instrumentation = NULL_INSTRUMENTATION,
    ) -> FactSet:
        """O(|Δ|) kernel: one working fact set mutated in place.

        The match context, hash indexes and active-domain caches persist
        across iterations; only the domains of predicates named by the
        net change are invalidated.  Fixpoint is detected by an empty
        net change and the fact count is maintained by a running
        counter, so no iteration copies, compares or recounts the full
        fact set.  A scope that :meth:`_one_round` accepts returns after
        its first round.
        """
        cfg = self.config
        guard = cfg.guard
        step_obs = obs if obs.enabled else None
        metrics = obs.metrics if obs.enabled else None
        ctx = MatchContext(facts, self.schema, cfg.use_indexes,
                           metrics=metrics)
        domains = ActiveDomains(facts, self.schema)
        live = facts.count()
        once = self._one_round(rules)
        for _ in range(cfg.max_iterations):
            self._guard_boundary(guard, facts, live, inventions.count,
                                 obs)
            try:
                with self._iteration(obs):
                    deltas = compute_deltas(rules, ctx, inventions,
                                            obs=step_obs, domains=domains,
                                            guard=guard)
                    self.stats.inventions += deltas.inventions
                    if inventions.count > cfg.max_inventions:
                        raise NonTerminationError(
                            f"oid invention budget exceeded"
                            f" ({inventions.count} oids)",
                            self.stats.iterations,
                            stats=self.stats,
                        )
                    net = apply_deltas_inplace(facts, deltas)
            except EvalBudgetExceeded as exc:
                # compute_deltas never mutates ``facts``, so the working
                # set still is the last iteration boundary's state
                raise exc.attach(stats=self.stats, snapshot=facts)
            if net.is_empty:
                return facts
            live += net.count_drift
            self.stats.facts_derived = live
            domains.invalidate(net.predicates())
            if live > cfg.max_facts:
                raise NonTerminationError(
                    f"fact budget exceeded ({live} facts)",
                    self.stats.iterations,
                    stats=self.stats,
                )
            if once:
                # the boundary check the skipped second round would make
                self._guard_boundary(guard, facts, live, inventions.count,
                                     obs)
                return facts
        raise NonTerminationError(
            f"no fixpoint after {cfg.max_iterations} iterations",
            self.stats.iterations,
            stats=self.stats,
        )

    def _one_round(self, rules: list[RuleRuntime]) -> bool:
        """Whether the scope's first round already reaches the fixpoint.

        It does when no rule reads a predicate the scope defines (body
        literal or data-function read), no head deletes, every class
        head invents its oid and no rule has active-domain variables:
        a second round sees the same valuations over the same facts,
        and each head is satisfied by what the first round derived.
        A class head with a bound oid is excluded: two such rules can
        overwrite one o-value in turn, which the reference kernel
        reports as non-termination."""
        defined = {r.rule.head.pred.lower() for r in rules}
        for runtime in rules:
            head = runtime.rule.head
            if head.negated or runtime.safety.active_domain_vars:
                return False
            if self.schema.is_class(head.pred) and \
                    not runtime.safety.invents_oid:
                return False
            if not defined.isdisjoint(_read_preds(runtime.rule)):
                return False
        return True

    def _run_inflationary_reference(
        self,
        facts: FactSet,
        rules: list[RuleRuntime],
        inventions: InventionRegistry,
        obs: Instrumentation = NULL_INSTRUMENTATION,
    ) -> FactSet:
        """Copying reference implementation (``incremental=False``).

        Kept verbatim as the executable specification the incremental
        kernel is property-tested against: every iteration builds a new
        fact set and compares whole states for fixpoint detection.
        """
        cfg = self.config
        guard = cfg.guard
        step_obs = obs if obs.enabled else None
        metrics = obs.metrics if obs.enabled else None
        for _ in range(cfg.max_iterations):
            self._guard_boundary(guard, facts, facts.count(),
                                 inventions.count, obs)
            try:
                with self._iteration(obs):
                    ctx = MatchContext(facts, self.schema,
                                       self.config.use_indexes,
                                       metrics=metrics)
                    deltas = compute_deltas(rules, ctx, inventions,
                                            obs=step_obs, guard=guard)
                    self.stats.inventions += deltas.inventions
                    if inventions.count > cfg.max_inventions:
                        raise NonTerminationError(
                            f"oid invention budget exceeded"
                            f" ({inventions.count} oids)",
                            self.stats.iterations,
                            stats=self.stats,
                        )
                    new_facts = apply_deltas(facts, deltas)
            except EvalBudgetExceeded as exc:
                raise exc.attach(stats=self.stats, snapshot=facts)
            if new_facts == facts:
                return facts
            facts = new_facts
            self.stats.facts_derived = facts.count()
            if facts.count() > cfg.max_facts:
                raise NonTerminationError(
                    f"fact budget exceeded ({facts.count()} facts)",
                    self.stats.iterations,
                    stats=self.stats,
                )
        raise NonTerminationError(
            f"no fixpoint after {cfg.max_iterations} iterations",
            self.stats.iterations,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # semi-naive fast path (positive fragment)
    # ------------------------------------------------------------------
    def _seminaive_applicable(self, rules: list[RuleRuntime]) -> bool:
        """Whether semi-naive rounds compute this scope's fixpoint.

        Every head must be a positive association literal with no
        invention, no builtin or head may read a data function, no
        variable may range over the active domain, and every negated
        literal must read a predicate no rule of the scope defines —
        the negation is then over constants (the EDB, or a complete
        lower stratum) and the scope is monotone in what it derives."""
        defined = {r.rule.head.pred.lower() for r in rules}
        for runtime in rules:
            rule = runtime.rule
            head = rule.head
            if not isinstance(head, Literal) or head.negated:
                return False
            if self.schema.is_class(head.pred):
                return False
            if runtime.safety.invents_oid:
                return False
            if runtime.safety.active_domain_vars:
                return False
            if any(_function_preds(t) for _, t in head.args.labeled):
                return False
            for blit in rule.body:
                if isinstance(blit, BuiltinLiteral):
                    if any(_function_preds(t) for t in blit.args):
                        return False
                elif blit.negated and blit.pred.lower() in defined:
                    return False
        return True

    def _monotone(self, rules: list[RuleRuntime]) -> bool:
        """Whether the whole-program scope runs semi-naive: applicable
        and negation-free.  Its instance is then monotone in the EDB,
        so whatever :meth:`run` evaluates semi-naively under
        inflationary semantics :meth:`extend` can continue — an insert
        into a predicate read under negation could retract derived
        facts instead."""
        return not any(
            lit.negated for r in rules for lit in r.rule.body
        ) and self._seminaive_applicable(rules)

    def _run_seminaive(
        self,
        facts: FactSet,
        rules: list[RuleRuntime],
        delta: FactSet | None = None,
    ) -> FactSet:
        """Semi-naive rounds to the fixpoint.

        Each rule runs its compiled body when it has one and the generic
        body evaluator otherwise, in the same rounds.  Every delta fact
        goes to the seed handlers registered for its predicate: a
        compiled rule's seed chains, or a generic seed per positive body
        literal (:func:`_generic_seed`).  Every head fact emitted goes to
        one per-round collector, which drops facts already live or
        already emitted this round; the survivors join the state at
        round end and are the next round's delta.

        ``delta=None`` starts from the EDB ``facts`` with the initial
        round, every body evaluated in full; a given ``delta`` continues
        a fixpoint that ``facts`` already holds (plus the ``delta``
        facts), straight from the delta rounds.  ``incremental=False``
        keeps the copy-per-round reference mode: each round composes a
        new state instead of adding to the live one.
        """
        cfg = self.config
        guard = cfg.guard
        incremental = cfg.incremental
        # the iteration budget is per scope, as on the general path
        start = self.stats.iterations
        obs = NULL_INSTRUMENTATION  # semi-naive only runs uninstrumented
        # per rule: its compiled body (or None) and its seeds, one per
        # positive body literal, as (predicate, seed)
        bodies = []
        for runtime in rules:
            compiled = runtime.compiled
            if compiled is not None:
                seeds = [(pred, compiled.seed_chains[pos])
                         for pos, pred in compiled.seed_specs]
            else:
                seeds = [
                    (literal.pred.lower(), _generic_seed(runtime, pos))
                    for pos, literal in enumerate(runtime.rule.body)
                    if isinstance(literal, Literal) and not literal.negated
                ]
            bodies.append((runtime, compiled, seeds))
        ctx = MatchContext(facts, self.schema, cfg.use_indexes)
        domains = ActiveDomains(facts, self.schema)
        live = facts.count()
        self.stats.facts_derived = live
        pending = None if delta is None else list(delta.facts())
        while pending is None or pending:
            self._guard_boundary(guard, facts, live, 0)
            with self._iteration(obs):
                if pending is not None and \
                        self.stats.iterations - start > cfg.max_iterations:
                    raise NonTerminationError(
                        f"no fixpoint after {cfg.max_iterations}"
                        f" iterations",
                        self.stats.iterations,
                        stats=self.stats,
                    )
                fresh: list[Fact] = []
                seen: dict[str, set] = {}
                emits = [
                    compiled.make_round_emit(facts, fresh, seen, guard)
                    if compiled is not None
                    else make_round_emit(runtime, ctx, fresh, seen, guard)
                    for runtime, compiled, _ in bodies
                ]
                if pending is None:
                    # initial round: fact rules and rules over the EDB
                    for (runtime, compiled, _), emit in zip(bodies, emits):
                        if compiled is not None:
                            compiled.run_full(ctx, emit)
                            continue
                        for bindings in evaluate_body(runtime, ctx,
                                                      domains):
                            emit(bindings)
                else:
                    # handler = (seed, state, emit), called as
                    # seed(fact, state, ctx, emit): a compiled seed
                    # chain's state is its register file, a generic
                    # seed's the active domains
                    dispatch: dict[str, list] = {}
                    for (_, compiled, seeds), emit in zip(bodies, emits):
                        state = compiled.regs if compiled is not None \
                            else domains
                        for pred, seed in seeds:
                            dispatch.setdefault(pred, []).append(
                                (seed, state, emit))
                    for fact in pending:
                        handlers = dispatch.get(fact.pred)
                        if handlers is None:
                            continue
                        for seed, state, emit in handlers:
                            seed(fact, state, ctx, emit)
                if incremental:
                    for fact in fresh:
                        facts.add(fact)
                    domains.invalidate(seen)
                else:
                    facts = facts.compose(FactSet.from_facts(fresh))
                    ctx = MatchContext(facts, self.schema, cfg.use_indexes)
                    domains = ActiveDomains(facts, self.schema)
                live += len(fresh)
                self.stats.facts_derived = live
                pending = fresh
            if live > cfg.max_facts:
                raise NonTerminationError(
                    f"fact budget exceeded ({live} facts)",
                    self.stats.iterations,
                    stats=self.stats,
                )
        return facts

    # ------------------------------------------------------------------
    # non-inflationary
    # ------------------------------------------------------------------
    def _run_noninflationary(
        self,
        edb: FactSet,
        rules: list[RuleRuntime],
        inventions: InventionRegistry,
        obs: Instrumentation = NULL_INSTRUMENTATION,
    ) -> FactSet:
        if self.analysis.has_invention:
            raise EvaluationError(
                "non-inflationary semantics does not support oid invention"
            )
        cfg = self.config
        guard = cfg.guard
        step_obs = obs if obs.enabled else None
        metrics = obs.metrics if obs.enabled else None
        facts = edb.copy()
        if obs.enabled:
            facts.index_stats = obs.index_stats
        self._attach_plans(rules, facts, obs, Semantics.NONINFLATIONARY)
        seen: list[FactSet] = [facts.copy()]
        for _ in range(cfg.max_iterations):
            self._guard_boundary(guard, facts, facts.count(),
                                 inventions.count, obs)
            try:
                with self._iteration(obs):
                    ctx = MatchContext(facts, self.schema,
                                       self.config.use_indexes,
                                       metrics=metrics)
                    deltas = compute_deltas(rules, ctx, inventions,
                                            skip_satisfied=False,
                                            obs=step_obs, guard=guard)
                    new_facts = edb.copy().compose(deltas.plus).minus(
                        deltas.minus
                    )
            except EvalBudgetExceeded as exc:
                raise exc.attach(stats=self.stats, snapshot=facts)
            if new_facts == facts:
                return facts
            for previous in seen:
                if previous == new_facts:
                    raise NonTerminationError(
                        "non-inflationary evaluation oscillates between"
                        " states without reaching a fixpoint",
                        self.stats.iterations,
                        stats=self.stats,
                    )
            seen.append(new_facts.copy())
            facts = new_facts
            if facts.count() > cfg.max_facts:
                raise NonTerminationError(
                    f"fact budget exceeded ({facts.count()} facts)",
                    self.stats.iterations,
                    stats=self.stats,
                )
        raise NonTerminationError(
            f"no fixpoint after {cfg.max_iterations} iterations",
            self.stats.iterations,
            stats=self.stats,
        )


def _generic_seed(runtime: RuleRuntime, pos: int):
    """The semi-naive seed of an uncompiled rule at body position
    ``pos``: ``seed(fact, domains, ctx, emit)`` matches the delta fact
    against the literal there and emits every valuation of the rest of
    the body, in the plan's delta order when it has one."""
    body = tuple(runtime.rule.body)
    args = body[pos].args
    plan = runtime.plan
    rest_order = plan.delta_orders.get(pos) if plan is not None else None
    if rest_order is not None:
        rest = tuple(body[i] for i in rest_order)
    else:
        rest = body[:pos] + body[pos + 1:]
    ordered = rest_order is not None

    def seed(fact, domains, ctx, emit):
        bindings = match_fact(args, fact, {}, ctx)
        if bindings is None:
            return
        for valuation in evaluate_body(runtime, ctx, domains,
                                       seed=bindings, body=rest,
                                       ordered=ordered):
            emit(valuation)
    return seed


def _function_preds(term) -> set[str]:
    """The backing predicates of the data functions ``term`` reads."""
    if isinstance(term, FunctionApp):
        out = {f"__fn_{term.name}".lower()}
        for arg in term.args:
            out |= _function_preds(arg)
        return out
    if isinstance(term, ArithExpr):
        return _function_preds(term.left) | _function_preds(term.right)
    if isinstance(term, CollectionTerm):
        return set().union(*(_function_preds(e) for e in term.elements))
    return set()


def _read_preds(rule: Rule) -> set[str]:
    """Every predicate ``rule`` reads: its body literals' predicates
    and the backing predicates of the data functions in its builtins,
    literal arguments and head."""
    out: set[str] = set()
    terms = [t for _, t in rule.head.args.labeled]
    for blit in rule.body:
        if isinstance(blit, BuiltinLiteral):
            terms.extend(blit.args)
        else:
            out.add(blit.pred.lower())
            terms.extend(t for _, t in blit.args.labeled)
    for term in terms:
        out |= _function_preds(term)
    return out


def stratify_runtimes(
    rules: list[RuleRuntime], analysis: AnalyzedProgram
) -> list[list[RuleRuntime]]:
    """Group rule runtimes according to the program's strata."""
    strata_rules = analysis.strata()
    by_rule: dict[int, int] = {}
    for level, stratum in enumerate(strata_rules):
        for rule in stratum:
            for runtime_rule in rules:
                if runtime_rule.rule == rule and \
                        runtime_rule.index not in by_rule:
                    by_rule[runtime_rule.index] = level
                    break
    grouped: dict[int, list[RuleRuntime]] = {}
    for runtime in rules:
        grouped.setdefault(by_rule.get(runtime.index, 0), []).append(runtime)
    return [grouped[k] for k in sorted(grouped)]

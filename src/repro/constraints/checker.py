"""Consistency checking of database instances.

A state is *consistent* when (Definition 4 plus Section 2.1):

1. every fact structurally matches its predicate's effective type
   (class o-values may be attribute-partial: derived objects need not
   populate every attribute);
2. ``π(sub) ⊆ π(sup)`` for every ``isa`` edge;
3. oids are shared only within one generalization hierarchy;
4. class references inside class o-values are nil or resolvable;
5. class references inside association tuples are non-nil and resolvable
   (deep: also inside nested sets / multisets / sequences / tuples);
6. no passive denial's body is satisfiable.

Module application (Section 4.1) rejects any transition to an
inconsistent state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.activedomain import ActiveDomains
from repro.engine.step import RuleRuntime, evaluate_body
from repro.engine.valuation import MatchContext, match_fact
from repro.errors import ConsistencyError
from repro.language.analysis import (
    check_safety,
    check_types,
    resolve_rule,
    schema_with_functions,
)
from repro.language.ast import Literal, Rule
from repro.storage.factset import Fact, FactSet
from repro.types.descriptors import (
    MultisetType,
    NamedType,
    SequenceType,
    SetType,
    TupleType,
    TypeDescriptor,
)
from repro.types.schema import Schema
from repro.values.complex import (
    MultisetValue,
    SequenceValue,
    SetValue,
    TupleValue,
    Value,
)
from repro.values.oids import Oid
from repro.values.typing import value_matches_type


@dataclass(frozen=True)
class Violation:
    """One consistency violation."""

    kind: str       # 'type', 'isa', 'hierarchy', 'reference', 'denial'
    predicate: str
    message: str
    fact: Fact | None = None

    def __repr__(self) -> str:
        return f"[{self.kind}] {self.predicate}: {self.message}"

    def render(self) -> str:
        """A human-readable one-liner, used by ``repro check``."""
        out = f"{self.kind} violation on {self.predicate!r}: {self.message}"
        if self.fact is not None:
            out += f"\n    offending fact: {self.fact!r}"
        return out


class ConsistencyChecker:
    """Checks fact sets against a schema and a set of passive denials."""

    def __init__(self, schema: Schema, denials: tuple[Rule, ...] = ()):
        self.schema = schema
        self._extended = schema_with_functions(schema)
        self.denials = tuple(d for d in denials if d.is_denial)
        self._current_facts: FactSet | None = None

    # ------------------------------------------------------------------
    def check(self, facts: FactSet,
              instrumentation=None) -> list[Violation]:
        """All violations in ``facts`` (empty list = consistent).

        An enabled :class:`repro.observability.Instrumentation` receives
        the check's wall time (``constraint_check_time``) and one
        constraint-violation event per finding.
        """
        obs = instrumentation
        if obs is not None and not obs.enabled:
            obs = None
        started = time.perf_counter() if obs is not None else 0.0
        self._current_facts = facts
        try:
            out: list[Violation] = []
            out.extend(self._check_structure(facts))
            out.extend(self._check_isa(facts))
            out.extend(self._check_references(facts))
            out.extend(self._check_denials(facts))
            return out
        finally:
            self._current_facts = None
            if obs is not None:
                if obs.metrics is not None:
                    obs.metrics.observe(
                        "constraint_check_time",
                        value=time.perf_counter() - started,
                    )
                for violation in out:
                    obs.constraint_violation(violation)

    def extension_consistent(self, facts: FactSet, added: FactSet) -> bool:
        """Whether ``facts`` is consistent, given that it is a
        consistent set (same schema and denials) plus the ``added``
        facts (``added ⊆ facts``) and a schema without isa edges, as
        every program :meth:`Engine.extendable` accepts has.

        Nothing was removed, so every violation of ``facts`` that
        the consistent set lacks involves an added fact: the structure,
        hierarchy and reference checks run on ``added`` only, and each
        denial is evaluated seeded on its positive body literals whose
        predicate gained facts.  Only the verdict is computed;
        :meth:`check` words the violations."""
        if not added.count():
            return True
        self._current_facts = facts
        try:
            return not (
                self._check_structure(added)
                or self._hierarchy_broken_by(added, facts)
                or self._check_references(added)
                or self._denials_seeded(facts, added)
            )
        finally:
            self._current_facts = None

    def require_consistent(self, facts: FactSet) -> None:
        violations = self.check(facts)
        if violations:
            preview = "; ".join(v.render() for v in violations[:3])
            more = len(violations) - 3
            suffix = f" (+{more} more)" if more > 0 else ""
            raise ConsistencyError(
                f"{len(violations)} consistency violations: "
                f"{preview}{suffix}"
            )

    # ------------------------------------------------------------------
    def _check_structure(self, facts: FactSet) -> list[Violation]:
        out = []
        schema = self._extended
        for pred in facts.predicates():
            if not schema.has(pred):
                out.append(Violation(
                    "type", pred, "predicate is not declared in the schema"
                ))
                continue
            eff = schema.effective_type(pred)
            is_class = schema.is_class(pred)
            for fact in facts.facts_of(pred):
                if is_class != fact.is_class_fact:
                    out.append(Violation(
                        "type", pred,
                        "class/association fact shape mismatch", fact,
                    ))
                    continue
                for label in fact.value.labels:
                    if not eff.has_label(label):
                        out.append(Violation(
                            "type", pred,
                            f"unknown attribute {label!r}", fact,
                        ))
                        break
                else:
                    for f in eff.fields:
                        if f.label not in fact.value:
                            if not is_class:
                                out.append(Violation(
                                    "type", pred,
                                    f"association tuple misses attribute"
                                    f" {f.label!r}", fact,
                                ))
                                break
                            continue  # partial class o-values are legal
                        if not value_matches_type(
                            fact.value[f.label], f.type, schema,
                            allow_nil=is_class,
                        ):
                            out.append(Violation(
                                "type", pred,
                                f"attribute {f.label!r} ="
                                f" {fact.value[f.label]!r} does not match"
                                f" type {f.type!r}", fact,
                            ))
                            break
        return out

    def _check_isa(self, facts: FactSet) -> list[Violation]:
        out = []
        schema = self.schema
        for decl in schema.isa_declarations:
            missing = facts.oids_of(decl.sub) - facts.oids_of(decl.sup)
            for oid in sorted(missing, key=lambda o: o.number):
                out.append(Violation(
                    "isa", decl.sub,
                    f"object {oid!r} is in {decl.sub!r} but not in its"
                    f" superclass {decl.sup!r}",
                ))
        # oid-universe partition
        owner: dict[Oid, str] = {}
        for pred in schema.class_names:
            root = schema.hierarchy_root(pred)
            for oid in facts.oids_of(pred):
                prev = owner.setdefault(oid, root)
                if prev != root:
                    out.append(Violation(
                        "hierarchy", pred,
                        f"oid {oid!r} appears in hierarchies {prev!r}"
                        f" and {root!r}",
                    ))
        return out

    def _hierarchy_broken_by(self, added: FactSet, facts: FactSet) -> bool:
        """Whether an oid of ``added`` is shared across hierarchies in
        ``facts``.  Superclass membership needs no check without isa
        edges (an extendable program has none: each edge generates a
        class-head propagation rule)."""
        schema = self.schema
        for pred in schema.class_names:
            root = schema.hierarchy_root(pred)
            for oid in added.oids_of(pred):
                if any(
                    schema.hierarchy_root(other) != root
                    and facts.has_oid(other, oid)
                    for other in schema.class_names
                ):
                    return True
        return False

    def _check_references(self, facts: FactSet) -> list[Violation]:
        out = []
        schema = self._extended
        for pred in facts.predicates():
            if not schema.has(pred):
                continue
            eff = schema.effective_type(pred)
            allow_nil = schema.is_class(pred)
            for fact in facts.facts_of(pred):
                for f in eff.fields:
                    if f.label in fact.value:
                        self._walk_refs(
                            fact.value[f.label], f.type, allow_nil, pred,
                            fact, out,
                        )
        return out

    def _walk_refs(
        self,
        value: Value,
        declared: TypeDescriptor,
        allow_nil: bool,
        pred: str,
        fact: Fact,
        out: list[Violation],
    ) -> None:
        schema = self._extended
        if isinstance(declared, NamedType):
            if schema.is_class(declared.name):
                if not isinstance(value, Oid):
                    return  # structural check already reported this
                if value.is_nil:
                    if not allow_nil:
                        out.append(Violation(
                            "reference", pred,
                            f"nil reference to {declared.name!r} inside an"
                            " association", fact,
                        ))
                    return
                if not self._current_facts.has_oid(declared.name, value):
                    out.append(Violation(
                        "reference", pred,
                        f"dangling reference {value!r} to class"
                        f" {declared.name!r}", fact,
                    ))
                return
            if schema.is_domain(declared.name):
                self._walk_refs(
                    value, schema.rhs_of(declared.name), allow_nil, pred,
                    fact, out,
                )
                return
            self._walk_refs(
                value, schema.effective_type(declared.name), allow_nil,
                pred, fact, out,
            )
            return
        if isinstance(declared, TupleType) and isinstance(value, TupleValue):
            for f in declared.fields:
                if f.label in value:
                    self._walk_refs(
                        value[f.label], f.type, allow_nil, pred, fact, out
                    )
            return
        if isinstance(declared, (SetType, MultisetType, SequenceType)):
            if isinstance(value, (SetValue, MultisetValue, SequenceValue)):
                for v in value:
                    self._walk_refs(v, declared.element, allow_nil, pred,
                                    fact, out)

    def _check_denials(self, facts: FactSet) -> list[Violation]:
        out = []
        ctx = MatchContext(facts, self._extended)
        domains = ActiveDomains(facts, self._extended)
        for denial in self.denials:
            resolved = resolve_rule(denial, self._extended)
            try:
                varinfo = check_types(resolved, self._extended)
                safety = check_safety(resolved, self._extended)
            except Exception as exc:  # ill-typed denial: report, don't crash
                out.append(Violation(
                    "denial", denial.name or "denial",
                    f"denial cannot be evaluated: {exc}",
                ))
                continue
            runtime = RuleRuntime(-1, resolved, safety, varinfo)
            witness = next(evaluate_body(runtime, ctx, domains), None)
            if witness is not None:
                shown = {
                    v.name: witness[v]
                    for v in list(witness)[:4]
                }
                out.append(Violation(
                    "denial", denial.name or "denial",
                    f"denial {resolved!r} is violated, e.g. by {shown}",
                ))
        return out

    def _denials_seeded(self, facts: FactSet, added: FactSet) -> bool:
        """Whether some denial has a witness in ``facts`` that binds a
        positive body literal to a fact of ``added`` (with ``facts ⊇
        added`` extending a consistent set, no other witness is new)."""
        ctx = MatchContext(facts, self._extended)
        domains = ActiveDomains(facts, self._extended)
        for denial in self.denials:
            resolved = resolve_rule(denial, self._extended)
            try:
                runtime = RuleRuntime(
                    -1, resolved, check_safety(resolved, self._extended),
                    check_types(resolved, self._extended),
                )
            except Exception:  # ill-typed: the full check reports it
                return True
            if runtime.safety.active_domain_vars:
                # new values widen the active domain a negated literal
                # ranges over, with no new fact to seed on: evaluate
                # this denial whole
                if next(evaluate_body(runtime, ctx, domains),
                        None) is not None:
                    return True
                continue
            body = resolved.body
            for pos, literal in enumerate(body):
                if not isinstance(literal, Literal) or literal.negated:
                    continue
                rest = body[:pos] + body[pos + 1:]
                for fact in added.facts_of(literal.pred):
                    seed = match_fact(literal.args, fact, {}, ctx)
                    if seed is not None and next(evaluate_body(
                        runtime, ctx, domains, seed=seed, body=rest
                    ), None) is not None:
                        return True
        return False


def check_consistency(
    facts: FactSet, schema: Schema, denials: tuple[Rule, ...] = ()
) -> list[Violation]:
    """Convenience one-shot check."""
    return ConsistencyChecker(schema, denials).check(facts)

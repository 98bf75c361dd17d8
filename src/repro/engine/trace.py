"""Derivation tracing and explanation.

Section 5 lists "tools supporting the design, debugging, and monitoring
of LOGRES databases and programs" as the project's planned environment.
:class:`Tracer` implements the monitoring half: attached to an engine
run, it records which rule and valuation produced every derived fact and
at which iteration, and can reconstruct a *derivation tree* for any fact
of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.valuation import Bindings, MatchContext
from repro.language.ast import Literal, Rule
from repro.storage.factset import Fact, FactSet
from repro.types.schema import Schema
from repro.values.complex import Value


@dataclass(frozen=True)
class Derivation:
    """One recorded derivation step."""

    fact: Fact
    rule: Rule
    bindings: tuple[tuple[str, Value], ...]
    iteration: int
    deleted: bool = False

    def __repr__(self) -> str:
        action = "deleted" if self.deleted else "derived"
        return (
            f"[step {self.iteration}] {action} {self.fact!r}"
            f" by {self.rule!r}"
        )


@dataclass
class DerivationNode:
    """A node of an explanation tree."""

    fact: Fact
    rule: Rule | None  # None: extensional (present in the EDB)
    iteration: int = 0
    premises: list["DerivationNode"] = field(default_factory=list)

    @property
    def is_extensional(self) -> bool:
        return self.rule is None

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.rule is None:
            head = f"{pad}{self.fact!r}   (extensional)"
        else:
            head = (
                f"{pad}{self.fact!r}   <= step {self.iteration},"
                f" rule: {self.rule!r}"
            )
        return "\n".join(
            [head] + [p.render(indent + 1) for p in self.premises]
        )

    def __repr__(self) -> str:
        return self.render()


class Tracer:
    """Collects derivations during a run and explains result facts.

    The tracer is an *event sink*: attached to a run (via
    ``Engine.run(..., tracer=...)`` or
    ``Instrumentation.with_extra_sink``), it consumes the engine's
    structured event stream — iteration boundaries, rule firings and
    deletions — and folds it into :class:`Derivation` records.
    """

    def __init__(self) -> None:
        self.derivations: list[Derivation] = []
        self._by_fact: dict[Fact, Derivation] = {}
        # oid-keyed secondary index so class facts recorded with a
        # narrower o-value (attributes merged later) resolve in O(1)
        self._by_oid: dict[tuple[str, object], Derivation] = {}
        self.iteration = 0

    # -- event-sink protocol (fed by the engine's event stream) -----------
    def emit(self, event) -> None:
        kind = event.kind
        if kind == "iteration-start":
            self.begin_iteration(event.number)
        elif kind in ("rule-fire", "deletion") and \
                event.fact_value is not None:
            self.record(event.fact_value, event.rule_value,
                        event.bindings_value, deleted=kind == "deletion")

    def close(self) -> None:
        pass

    # -- recording --------------------------------------------------------
    def begin_iteration(self, number: int) -> None:
        self.iteration = number

    def record(self, fact: Fact, rule: Rule, bindings: Bindings,
               deleted: bool = False) -> None:
        entry = Derivation(
            fact,
            rule,
            tuple(sorted((v.name, value) for v, value in bindings.items())),
            self.iteration,
            deleted,
        )
        self.derivations.append(entry)
        if not deleted:
            if fact not in self._by_fact:
                self._by_fact[fact] = entry  # first derivation wins
            if fact.oid is not None:
                self._by_oid.setdefault((fact.pred, fact.oid), entry)

    # -- queries ----------------------------------------------------------
    def derivation_of(self, fact: Fact) -> Derivation | None:
        entry = self._by_fact.get(fact)
        if entry is not None:
            return entry
        # class facts may have been recorded with a narrower o-value
        # (attributes merged later); fall back to the oid index
        if fact.oid is not None:
            return self._by_oid.get((fact.pred, fact.oid))
        return None

    def deletions(self) -> list[Derivation]:
        return [d for d in self.derivations if d.deleted]

    def derivations_of(self, fact: Fact) -> list[Derivation]:
        """Every recorded *derivation* (Δ⁺ contribution) covering ``fact``.

        Unlike :meth:`derivation_of`, which returns the first derivation
        of the exact fact, this matches leniently — same predicate, same
        oid for class facts, and every attribute of the queried fact
        unified by the recorded one — which is what why-not provenance
        needs to decide whether an absent fact was ever produced.
        """
        return [
            d for d in self.derivations
            if not d.deleted and derivation_covers(d, fact)
        ]

    def deletions_of(self, fact: Fact) -> list[Derivation]:
        """Every recorded Δ⁻ contribution covering ``fact`` — the
        deletion-provenance query behind ``repro explain --why-not``."""
        return [
            d for d in self.derivations
            if d.deleted and derivation_covers(d, fact)
        ]

    def explain(
        self,
        fact: Fact,
        facts: FactSet,
        schema: Schema,
        max_depth: int = 12,
    ) -> DerivationNode:
        """The derivation tree of ``fact`` against the final instance.

        Premise facts are reconstructed by re-matching the deriving
        rule's positive body literals under the recorded valuation;
        extensional facts terminate branches.
        """
        return self._explain(fact, facts, schema, max_depth, set())

    def _explain(self, fact, facts, schema, depth, on_path):
        entry = self.derivation_of(fact)
        if entry is None or depth <= 0 or fact in on_path:
            return DerivationNode(fact, None)
        node = DerivationNode(fact, entry.rule, entry.iteration)
        ctx = MatchContext(facts, schema)
        bindings = {
            var: value
            for var, value in _named_bindings(entry)
        }
        on_path = on_path | {fact}
        for literal in entry.rule.body:
            if not isinstance(literal, Literal) or literal.negated:
                continue
            premise_fact = _first_matching_fact(
                literal, bindings, ctx
            )
            if premise_fact is not None:
                node.premises.append(
                    self._explain(premise_fact, facts, schema,
                                  depth - 1, on_path)
                )
        return node

    def __repr__(self) -> str:
        return f"Tracer({len(self.derivations)} derivations)"


def derivation_covers(entry: Derivation, fact: Fact) -> bool:
    """Does a recorded derivation speak about ``fact``?

    Class facts match by oid (the recorded o-value may be narrower than
    the final merged tuple); association facts match when every
    attribute the query names is present and unifies.
    """
    from repro.engine.valuation import values_unify

    recorded = entry.fact
    if recorded.pred != fact.pred:
        return False
    if fact.oid is not None or recorded.oid is not None:
        return recorded.oid == fact.oid
    return all(
        label in recorded.value
        and values_unify(recorded.value[label], value)
        for label, value in fact.value.items
    )


def _named_bindings(entry: Derivation):
    from repro.language.ast import Var

    for name, value in entry.bindings:
        yield Var(name), value


def _first_matching_fact(
    literal: Literal, bindings: Bindings, ctx: MatchContext
) -> Fact | None:
    """The stored fact supporting one body literal under a valuation."""
    from repro.engine.valuation import match_fact

    positive = Literal(literal.pred, literal.args, negated=False)
    for fact in ctx.facts.facts_of(positive.pred):
        if match_fact(positive.args, fact, dict(bindings), ctx) is not None:
            return fact
    return None  # premise no longer present (e.g. deleted later)

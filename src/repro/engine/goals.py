"""Goal answering.

A goal ``?- L1, ..., Ln`` is a conjunctive query over a computed instance.
Answers are bindings of the goal's variables; oid-valued bindings are
returned as :class:`~repro.values.oids.Oid` objects (user-facing renderers
should hide them, as oids are not visible to users — Section 2.1).
"""

from __future__ import annotations

from repro.engine.activedomain import ActiveDomains
from repro.engine.step import RuleRuntime, evaluate_body
from repro.engine.valuation import SELF_LABEL, MatchContext
from repro.language.analysis import (
    check_safety,
    check_types,
    resolve_goal,
    schema_with_functions,
)
from repro.language.ast import Goal, Rule, Var
from repro.storage.factset import FactSet
from repro.types.schema import Schema
from repro.values.complex import TupleValue, Value


def answer_goal(
    goal: Goal, facts: FactSet, schema: Schema
) -> list[dict[str, Value]]:
    """All answers to ``goal`` against ``facts``.

    Each answer maps variable names to values.  Variables bound to whole
    objects (tuple variables over classes) are reported as their attribute
    tuples with the hidden ``self`` oid removed; duplicate answers are
    collapsed.  Answers come sorted by their variable names and value
    ``repr``s, so their order never depends on set iteration order (and
    so on the hash seed).
    """
    extended = schema_with_functions(schema)
    resolved = resolve_goal(goal, extended)
    pseudo = Rule(None, resolved.literals)
    safety = check_safety(pseudo, extended)
    varinfo = check_types(pseudo, extended)
    runtime = RuleRuntime(index=-1, rule=pseudo, safety=safety,
                          varinfo=varinfo)
    ctx = MatchContext(facts, extended)
    domains = ActiveDomains(facts, extended)
    answers: dict[tuple, dict[str, Value]] = {}
    wanted = [v for v in resolved.variables()
              if not v.name.startswith("_G")]
    for bindings in evaluate_body(runtime, ctx, domains):
        answer = {
            var.name: _present(bindings[var])
            for var in wanted
            if var in bindings
        }
        key = tuple(sorted((k, repr(v)) for k, v in answer.items()))
        answers.setdefault(key, answer)
    return [answers[key] for key in sorted(answers)]


def _present(value: Value) -> Value:
    if isinstance(value, TupleValue) and SELF_LABEL in value:
        return value.without(SELF_LABEL)
    return value


def goal_holds(goal: Goal, facts: FactSet, schema: Schema) -> bool:
    """Boolean satisfaction: does the goal have at least one answer?"""
    return bool(answer_goal(goal, facts, schema))

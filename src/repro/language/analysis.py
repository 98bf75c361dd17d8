"""Static analysis of LOGRES programs (Section 3.1).

Runs at "compilation time", before any evaluation:

* **resolution** — positional arguments are matched to the predicate's
  effective fields (all-positional literals with matching arity) or
  recognized as the tuple variable; data-function sugar
  (``member(X, f(Y))`` literals and heads) is rewritten onto the hidden
  backing association ``__fn_f``;
* **safety** — every head argument other than an unbound head oid variable
  must be bound by the body; built-in variables must be groundable;
  variables occurring only in negated literals are marked as ranging over
  the active domain of their type; argument-less literals over non-0-ary
  predicates are rejected;
* **typing** — variables receive types from the labeled positions they
  occupy; unification between incompatible types is a compile-time error,
  as is ``C1(X) <- C2(X)`` for classes of different generalization
  hierarchies (two objects cannot share an oid across hierarchies);
* **stratification** — strata with respect to negation and data-function
  reads, used by the stratified (perfect-model) semantics.

Every check reports through :mod:`repro.analysis.diagnostics`: called
without a ``sink`` the first error raises the legacy exception
(:class:`~repro.errors.TypingError` and friends — fail-fast API), while
passing a :class:`repro.analysis.Collector` switches to collect-all mode,
in which analysis records each diagnostic and keeps going wherever
recovery is possible.  ``repro lint`` builds on the collect-all mode via
:mod:`repro.analysis.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import strongly_connected_components
from repro.analysis.diagnostics import (
    Collector,
    Related,
    emit_or_raise,
)
from repro.language.ast import (
    Args,
    ArithExpr,
    BuiltinLiteral,
    CollectionTerm,
    Constant,
    FunctionApp,
    FunctionHead,
    Goal,
    Literal,
    Pattern,
    Program,
    Rule,
    Term,
    Var,
)
from repro.language.builtins import NON_BINDING, RESULT_LAST
from repro.span import Span
from repro.types.descriptors import (
    NamedType,
    TupleField,
    TupleType,
    TypeDescriptor,
)
from repro.types.equations import Kind, TypeEquation
from repro.types.refinement import types_compatible
from repro.types.schema import Schema

FUNCTION_VALUE_LABEL = "value"


def _span_of(node) -> Span | None:
    return getattr(node, "span", None)


# ---------------------------------------------------------------------------
# derived schema with data-function backing associations
# ---------------------------------------------------------------------------
def schema_with_functions(schema: Schema) -> Schema:
    """Extend ``schema`` with one hidden association per data function.

    ``F: (t1, ..., tk) -> {t}`` gets the backing association
    ``__fn_f = (arg0: t1, ..., argk-1: tk, value: t)``.
    """
    if not schema.functions:
        return schema
    equations = dict(schema.equations)
    for decl in schema.functions.values():
        fields = [
            TupleField(label, t)
            for label, t in zip(decl.arg_labels, decl.arg_types)
        ]
        fields.append(TupleField(FUNCTION_VALUE_LABEL, decl.element_type))
        equations[decl.backing_predicate()] = TypeEquation(
            decl.backing_predicate(), Kind.ASSOCIATION,
            TupleType(tuple(fields)),
        )
    return Schema(equations, schema.isa_declarations, dict(schema.functions))


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------
def resolve_literal(
    literal: Literal, schema: Schema, sink: Collector | None = None,
) -> Literal:
    """Resolve positional arguments of one literal against the schema.

    In collect-all mode an unresolvable literal is reported and returned
    unchanged, so the caller can continue with the rest of the rule.
    """
    args = literal.args
    if not args.positional:
        return literal
    span = _span_of(literal)
    if not schema.has(literal.pred):
        emit_or_raise(sink, "LG201",
                      f"unknown predicate {literal.pred!r}", span)
        return literal
    fields = schema.effective_type(literal.pred).fields
    bare = list(args.positional)
    if (
        not args.labeled
        and args.self_term is None
        and args.tuple_var is None
        and len(bare) == len(fields)
        and not (len(bare) == 1 and isinstance(bare[0], Var)
                 and len(fields) > 1)
    ):
        labeled = tuple(
            (f.label, term) for f, term in zip(fields, bare)
        )
        return Literal(literal.pred, Args(labeled=labeled),
                       literal.negated, span=span)
    if len(bare) == 1 and isinstance(bare[0], Var):
        return Literal(
            literal.pred,
            Args(
                labeled=args.labeled,
                self_term=args.self_term,
                tuple_var=bare[0],
            ),
            literal.negated,
            span=span,
        )
    emit_or_raise(
        sink, "LG202",
        f"cannot resolve unlabeled arguments of {literal!r}: use labels,"
        f" or supply exactly {len(fields)} positional terms",
        span,
    )
    return literal


def _rewrite_member(
    blit: BuiltinLiteral, schema: Schema, sink: Collector | None = None,
) -> Literal | None:
    """``member(X, f(Y))`` over a declared function -> ``__fn_f`` literal."""
    if blit.name != "member" or len(blit.args) != 2:
        return None
    element, target = blit.args
    if not isinstance(target, FunctionApp):
        return None
    decl = schema.functions.get(target.name)
    if decl is None:
        return None
    if len(target.args) != decl.arity:
        emit_or_raise(
            sink, "LG203",
            f"function {decl.name!r} takes {decl.arity} arguments,"
            f" got {len(target.args)}",
            _span_of(blit),
        )
        return None
    labeled = tuple(zip(decl.arg_labels, target.args)) + (
        (FUNCTION_VALUE_LABEL, element),
    )
    return Literal(decl.backing_predicate(), Args(labeled=labeled),
                   blit.negated, span=_span_of(blit))


def _check_function_apps(
    term: Term, schema: Schema, sink: Collector | None = None,
    span: Span | None = None,
) -> None:
    """Every FunctionApp must name a declared data function."""
    if isinstance(term, FunctionApp):
        decl = schema.functions.get(term.name)
        if decl is None:
            emit_or_raise(
                sink, "LG204",
                f"unknown data function or unquoted constant:"
                f" {term.name!r}",
                span,
            )
            return
        if len(term.args) != decl.arity:
            emit_or_raise(
                sink, "LG203",
                f"function {term.name!r} takes {decl.arity} arguments,"
                f" got {len(term.args)}",
                span,
            )
        for a in term.args:
            _check_function_apps(a, schema, sink, span)
    elif isinstance(term, ArithExpr):
        _check_function_apps(term.left, schema, sink, span)
        _check_function_apps(term.right, schema, sink, span)
    elif isinstance(term, CollectionTerm):
        for e in term.elements:
            _check_function_apps(e, schema, sink, span)
    elif isinstance(term, Pattern):
        for _, t in term.args.labeled:
            _check_function_apps(t, schema, sink, span)


def resolve_rule(
    rule: Rule, schema: Schema, sink: Collector | None = None,
) -> Rule:
    """Resolve positionals and rewrite data-function sugar in one rule."""
    head = rule.head
    if isinstance(head, FunctionHead):
        hspan = _span_of(head) or _span_of(rule)
        decl = schema.functions.get(head.function)
        if decl is None:
            emit_or_raise(
                sink, "LG204",
                f"unknown data function {head.function!r}", hspan,
            )
            head = None
        elif len(head.args) != decl.arity:
            emit_or_raise(
                sink, "LG203",
                f"function {head.function!r} takes {decl.arity} arguments,"
                f" got {len(head.args)}",
                hspan,
            )
            head = None
        else:
            labeled = tuple(zip(decl.arg_labels, head.args)) + (
                (FUNCTION_VALUE_LABEL, head.element),
            )
            head = Literal(decl.backing_predicate(),
                           Args(labeled=labeled), head.negated, span=hspan)
    elif isinstance(head, Literal):
        head = resolve_literal(head, schema, sink)

    body: list = []
    for blit in rule.body:
        if isinstance(blit, Literal):
            body.append(resolve_literal(blit, schema, sink))
        else:
            rewritten = _rewrite_member(blit, schema, sink)
            if rewritten is not None:
                body.append(rewritten)
            else:
                for t in blit.args:
                    _check_function_apps(t, schema, sink, _span_of(blit))
                body.append(blit)
    return Rule(head, tuple(body), rule.name, span=_span_of(rule))


def resolve_goal(
    goal: Goal, schema: Schema, sink: Collector | None = None,
) -> Goal:
    out = []
    for blit in goal.literals:
        if isinstance(blit, Literal):
            out.append(resolve_literal(blit, schema, sink))
        else:
            rewritten = _rewrite_member(blit, schema, sink)
            out.append(rewritten if rewritten is not None else blit)
    return Goal(tuple(out), span=_span_of(goal))


# ---------------------------------------------------------------------------
# variable typing
# ---------------------------------------------------------------------------
@dataclass
class VarInfo:
    """Inferred information about one rule variable."""

    types: list[TypeDescriptor] = field(default_factory=list)
    #: class names where the variable appears as an oid/tuple variable
    #: in the BODY (it then carries an oid)
    classes: list[str] = field(default_factory=list)
    #: class names where it is the head's oid/tuple variable; a head
    #: tuple variable may be fed by a plain association tuple (the
    #: paper's ``ip(C) <- pair(C)``), in which case an oid is invented
    head_classes: list[str] = field(default_factory=list)
    #: association names where it is the tuple variable
    assoc_tuples: list[str] = field(default_factory=list)


def _record_term(
    term: Term, expected: TypeDescriptor, schema: Schema,
    info: dict[Var, VarInfo], sink: Collector | None = None,
    span: Span | None = None,
) -> None:
    if isinstance(term, Var):
        entry = info.setdefault(term, VarInfo())
        entry.types.append(expected)
        if isinstance(expected, NamedType) and schema.is_class(expected.name):
            entry.classes.append(expected.name.lower())
        return
    if isinstance(term, Pattern):
        # pattern over a tuple-typed or class-typed component
        target = expected
        if isinstance(target, NamedType):
            if schema.is_class(target.name):
                _record_args(term.args, target.name, schema, info,
                             sink=sink, span=span)
                return
            if schema.is_domain(target.name):
                target = schema.rhs_of(target.name)
        if isinstance(target, TupleType):
            for label, sub in term.args.labeled:
                if not target.has_label(label):
                    emit_or_raise(
                        sink, "LG301",
                        f"pattern component {label!r} not in type"
                        f" {target!r}",
                        span,
                    )
                    continue
                _record_term(sub, target.field(label).type, schema, info,
                             sink, span)
            if term.args.self_term is not None:
                emit_or_raise(
                    sink, "LG302",
                    "self is only legal in patterns over class components",
                    span,
                )
        return
    if isinstance(term, Constant):
        # "constants are labeled by their type name ... type checking may
        # be done at compilation time" (Section 3.1)
        from repro.values.typing import value_matches_type

        if not value_matches_type(term.value, expected, schema):
            emit_or_raise(
                sink, "LG303",
                f"constant {term!r} does not belong to type {expected!r}",
                span,
            )
        return
    # arithmetic / collection / function-app: element types handled at
    # evaluation; nothing to record against the expected type here.


def _record_args(
    args: Args, pred: str, schema: Schema, info: dict[Var, VarInfo],
    in_head: bool = False, sink: Collector | None = None,
    span: Span | None = None,
) -> None:
    eff = schema.effective_type(pred)
    is_class = schema.is_class(pred)
    for label, term in args.labeled:
        if not eff.has_label(label):
            emit_or_raise(
                sink, "LG301",
                f"predicate {pred!r} has no argument labeled {label!r}",
                span,
            )
            continue
        _record_term(term, eff.field(label).type, schema, info, sink, span)
    if args.self_term is not None:
        if not is_class:
            emit_or_raise(
                sink, "LG302",
                f"self argument on non-class predicate {pred!r}", span,
            )
        elif isinstance(args.self_term, Var):
            entry = info.setdefault(args.self_term, VarInfo())
            (entry.head_classes if in_head else entry.classes).append(
                pred.lower()
            )
            if not in_head:
                entry.types.append(NamedType(pred.lower()))
    if args.tuple_var is not None:
        entry = info.setdefault(args.tuple_var, VarInfo())
        if is_class:
            (entry.head_classes if in_head else entry.classes).append(
                pred.lower()
            )
            if not in_head:
                entry.types.append(NamedType(pred.lower()))
        else:
            entry.assoc_tuples.append(pred.lower())
            entry.types.append(eff)


def infer_variable_types(
    rule: Rule, schema: Schema, sink: Collector | None = None,
) -> dict[Var, VarInfo]:
    """Collect per-variable type evidence from every ordinary literal."""
    info: dict[Var, VarInfo] = {}
    for lit in rule.body:
        if not isinstance(lit, Literal):
            continue
        if not schema.has(lit.pred):
            emit_or_raise(sink, "LG201",
                          f"unknown predicate {lit.pred!r}",
                          _span_of(lit) or _span_of(rule))
            continue
        _record_args(lit.args, lit.pred, schema, info, sink=sink,
                     span=_span_of(lit) or _span_of(rule))
    if isinstance(rule.head, Literal):
        if not schema.has(rule.head.pred):
            emit_or_raise(sink, "LG201",
                          f"unknown predicate {rule.head.pred!r}",
                          _span_of(rule.head) or _span_of(rule))
        else:
            _record_args(rule.head.args, rule.head.pred, schema, info,
                         in_head=True, sink=sink,
                         span=_span_of(rule.head) or _span_of(rule))
    return info


def check_types(
    rule: Rule, schema: Schema, sink: Collector | None = None,
) -> dict[Var, VarInfo]:
    """Verify unification compatibility of every variable's occurrences."""
    info = infer_variable_types(rule, schema, sink)
    span = _span_of(rule)
    for var, entry in info.items():
        # class occurrences must share a generalization hierarchy; head
        # classes only constrain the variable if the body binds it to an
        # object (otherwise the head invents / copies attributes)
        constraining = list(entry.classes)
        if entry.classes:
            constraining += entry.head_classes
        roots = {schema.hierarchy_root(c) for c in constraining}
        if len(roots) > 1:
            emit_or_raise(
                sink, "LG306",
                f"variable {var!r} in rule {rule!r} ranges over classes of"
                f" different hierarchies {sorted(roots)}; objects of"
                " distinct hierarchies can never share an oid",
                span,
            )
        # pairwise compatibility of non-class types
        plain = [
            t for t in entry.types
            if not (isinstance(t, NamedType) and schema.is_class(t.name))
        ]
        for i in range(len(plain)):
            for j in range(i + 1, len(plain)):
                if not types_compatible(plain[i], plain[j], schema):
                    emit_or_raise(
                        sink, "LG304",
                        f"variable {var!r} used at incompatible types"
                        f" {plain[i]!r} and {plain[j]!r} in rule {rule!r}",
                        span,
                    )
        if entry.classes and plain:
            emit_or_raise(
                sink, "LG305",
                f"variable {var!r} is used both as an object of class"
                f" {entry.classes[0]!r} and at value type {plain[0]!r}",
                span,
            )
    _check_head_oid_legality(rule, schema, info, sink)
    return info


def _check_head_oid_legality(
    rule: Rule, schema: Schema, info: dict[Var, VarInfo],
    sink: Collector | None = None,
) -> None:
    """Section 3.1: ``C1(X) <- C2(X)`` legality across hierarchies is
    already excluded by the shared-root check; here we validate that a
    *bound* head oid/tuple variable of a class head actually carries an
    oid (comes from a class position)."""
    head = rule.head
    if not isinstance(head, Literal) or not schema.is_class(head.pred):
        return
    body_vars = set(rule.body_variables())
    # a bound SELF variable must carry an oid; a bound tuple variable may
    # instead carry a plain tuple whose attributes are copied into a
    # freshly invented object (Example 3.4's ip(C) <- pair(C))
    var = head.args.self_term
    if isinstance(var, Var) and var in body_vars:
        entry = info.get(var)
        if entry is not None and not entry.classes:
            emit_or_raise(
                sink, "LG307",
                f"head variable {var!r} of class {head.pred!r} must be"
                " bound to an object (oid or tuple variable of a"
                " class), not a plain value",
                _span_of(head) or _span_of(rule),
            )


# ---------------------------------------------------------------------------
# safety
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SafetyReport:
    """Outcome of the safety check for one rule."""

    invents_oid: bool
    active_domain_vars: tuple[Var, ...]


def negation_ready(literal: Literal, bound, ad_vars) -> bool:
    """Whether a negated literal can run: each of its variables is in
    ``bound`` or ranges over the active domain (``ad_vars``, the rule's
    :attr:`SafetyReport.active_domain_vars`)."""
    return all(v in bound or v in ad_vars for v in literal.variables())


def check_safety(
    rule: Rule, schema: Schema, sink: Collector | None = None,
) -> SafetyReport:
    """Enforce the safety requirements of Section 3.1."""
    # argument-less literals over predicates with arguments
    for lit in list(rule.body) + (
        [rule.head] if isinstance(rule.head, Literal) else []
    ):
        if isinstance(lit, Literal) and lit.args.is_empty:
            if schema.has(lit.pred) and schema.effective_type(
                lit.pred
            ).fields:
                emit_or_raise(
                    sink, "LG401",
                    f"literal {lit!r} has no arguments but predicate"
                    f" {lit.pred!r} has arguments",
                    _span_of(lit) or _span_of(rule),
                )

    bound: set[Var] = set()
    for lit in rule.body:
        if isinstance(lit, Literal) and not lit.negated:
            bound.update(lit.variables())

    # builtins can bind additional variables; iterate to a fixpoint
    builtins = [l for l in rule.body if isinstance(l, BuiltinLiteral)]
    changed = True
    while changed:
        changed = False
        for blit in builtins:
            if blit.negated:
                continue
            newly = _builtin_bindable(blit, bound)
            if newly - bound:
                bound |= newly
                changed = True

    # variables only in negated ordinary literals range over the active
    # domain of their type
    active_domain: list[Var] = []
    for lit in rule.body:
        if isinstance(lit, Literal) and lit.negated:
            for var in lit.variables():
                if var not in bound and var not in active_domain:
                    active_domain.append(var)

    # every builtin variable must be groundable
    for blit in builtins:
        for var in blit.variables():
            if var not in bound:
                emit_or_raise(
                    sink, "LG402",
                    f"variable {var!r} of builtin {blit!r} occurs in no"
                    " ordinary literal and cannot be bound",
                    _span_of(blit) or _span_of(rule),
                )

    # head safety
    invents = False
    head = rule.head
    if isinstance(head, Literal):
        head_bound = bound | set(active_domain)
        self_term = head.args.self_term
        for var in head.variables():
            if var in head_bound:
                continue
            if var == self_term and schema.is_class(head.pred) and \
                    not head.negated:
                invents = True  # Section 3.1 safety rule (1)
                continue
            if var == head.args.tuple_var and schema.is_class(head.pred) \
                    and not head.negated and self_term is None:
                invents = True
                continue
            emit_or_raise(
                sink, "LG403",
                f"head variable {var!r} of rule {rule!r} is not bound by"
                " the body",
                _span_of(head) or _span_of(rule),
            )
        if schema.is_class(head.pred) and not head.negated and \
                self_term is None and head.args.tuple_var is None:
            # class head with no oid variable at all: a fresh object is
            # invented per derivation (existential quantification)
            invents = True
    return SafetyReport(invents, tuple(active_domain))


def _builtin_bindable(blit: BuiltinLiteral, bound: set[Var]) -> set[Var]:
    """Variables that ``blit`` can bind given already-bound variables."""
    def term_bound(t: Term) -> bool:
        return all(v in bound for v in t.variables())

    name = blit.name
    out = set(bound)
    if name == "=" and len(blit.args) == 2:
        left, right = blit.args
        if term_bound(left) and isinstance(right, Var):
            out.add(right)
        elif term_bound(right) and isinstance(left, Var):
            out.add(left)
        return out
    if name == "member" and len(blit.args) == 2:
        element, coll = blit.args
        if term_bound(coll) and isinstance(element, Var):
            out.add(element)
        return out
    if name in RESULT_LAST and blit.args:
        *inputs, result = blit.args
        if all(term_bound(t) for t in inputs) and isinstance(result, Var):
            out.add(result)
        return out
    if name in NON_BINDING:
        return out
    return out


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------
def _head_pred(rule: Rule) -> str | None:
    if isinstance(rule.head, Literal):
        return rule.head.pred
    return None


def read_function_preds(term: Term, out: set[str]) -> set[str]:
    """Add to ``out`` the backing predicate ``__fn_<name>`` of every data
    function ``term`` reads, nested reads included; returns ``out``."""
    if isinstance(term, FunctionApp):
        out.add(f"__fn_{term.name}")
        for a in term.args:
            read_function_preds(a, out)
    elif isinstance(term, ArithExpr):
        read_function_preds(term.left, out)
        read_function_preds(term.right, out)
    elif isinstance(term, CollectionTerm):
        for e in term.elements:
            read_function_preds(e, out)
    return out


def _function_reads(rule: Rule) -> tuple[set[str], set[str]]:
    """Backing predicates this rule reads: (element-wise, whole-set).

    Element-wise reads are monotone and do not constrain stratification:
    the paper's Example 3.2 recursively defines ``desc`` with
    ``member(X, T), T = desc(Z)``, which only ever looks at individual
    elements.  A read is *nesting* (stratification-relevant) when the set
    value can be observed as a whole — it flows into the head, into an
    aggregate builtin (count, sum, ...), or into an equality whose bound
    variable is used outside ``member`` collection positions.
    """
    positive: set[str] = set()
    preds: set[str] = set()
    head_vars = set(rule.head_variables())

    def var_used_only_as_member_collection(var: Var) -> bool:
        for blit in rule.body:
            if isinstance(blit, BuiltinLiteral):
                if blit.name == "member" and len(blit.args) == 2:
                    element, coll = blit.args
                    if var in element.variables():
                        return False
                    continue  # var as the collection of member is fine
                if blit.name == "=" and len(blit.args) == 2:
                    left, right = blit.args
                    if isinstance(left, Var) and left == var and isinstance(
                        right, FunctionApp
                    ):
                        continue  # the defining assignment itself
                    if isinstance(right, Var) and right == var and isinstance(
                        left, FunctionApp
                    ):
                        continue
                if var in [v for v in blit.variables()]:
                    return False
            elif var in [v for v in blit.variables()]:
                return False
        return var not in head_vars

    for blit in rule.body:
        if not isinstance(blit, BuiltinLiteral):
            continue
        if blit.name == "=" and len(blit.args) == 2:
            left, right = blit.args
            app, var = None, None
            if isinstance(left, Var) and isinstance(right, FunctionApp):
                var, app = left, right
            elif isinstance(right, Var) and isinstance(left, FunctionApp):
                var, app = right, left
            if app is not None and var is not None:
                for a in app.args:
                    # nested reads inside the arguments
                    read_function_preds(a, preds)
                if var_used_only_as_member_collection(var):
                    positive.add(f"__fn_{app.name}")  # element-wise
                    continue
                preds.add(f"__fn_{app.name}")
                continue
        for t in blit.args:
            read_function_preds(t, preds)
    if isinstance(rule.head, Literal):
        for _, t in rule.head.args.labeled:
            read_function_preds(t, preds)
    return positive, preds


def stratify(
    program: Program, schema: Schema, sink: Collector | None = None,
) -> list[list[Rule]]:
    """Partition rules into strata w.r.t. negation and data functions.

    Raises :class:`~repro.errors.StratificationError` (or, in collect-all
    mode, emits one ``LG501`` diagnostic per offending dependency) if a
    predicate depends negatively — or through a data-function read — on
    itself, directly or transitively.  In collect-all mode the strata of
    the remaining dependencies are still returned, so downstream warning
    passes can run.
    """
    rules = list(program.rules)
    graph: dict[str, set[str]] = {}
    negative_edges: dict[tuple[str, str], Rule] = {}
    for rule in rules:
        head = _head_pred(rule)
        if head is None:
            continue
        graph.setdefault(head, set())
        for blit in rule.body:
            if isinstance(blit, Literal):
                graph[head].add(blit.pred)
                graph.setdefault(blit.pred, set())
                if blit.negated:
                    negative_edges.setdefault((head, blit.pred), rule)
        elementwise, wholeset = _function_reads(rule)
        for fpred in elementwise:
            graph[head].add(fpred)
            graph.setdefault(fpred, set())
        for fpred in wholeset:
            graph[head].add(fpred)
            graph.setdefault(fpred, set())
            negative_edges.setdefault((head, fpred), rule)
        if isinstance(rule.head, Literal) and rule.head.negated:
            # a deletion of p must see the final p of earlier strata
            for blit in rule.body:
                if isinstance(blit, Literal) and blit.pred != head:
                    negative_edges.setdefault((head, blit.pred), rule)

    components = strongly_connected_components(graph)
    comp_of: dict[str, int] = {}
    for idx, comp in enumerate(components):
        for pred in comp:
            comp_of[pred] = idx
    for (head, dep), rule in negative_edges.items():
        if comp_of.get(head) == comp_of.get(dep):
            emit_or_raise(
                sink, "LG501",
                f"predicate {head!r} depends on {dep!r} through negation,"
                " deletion, or a data-function read inside a recursive"
                " cycle; the program is not stratified",
                _span_of(rule),
            )
    # components are produced in reverse topological order: dependencies
    # first — which is exactly evaluation order.
    stratum_of_pred = {p: comp_of[p] for p in comp_of}
    strata: dict[int, list[Rule]] = {}
    for rule in rules:
        head = _head_pred(rule)
        idx = stratum_of_pred.get(head, len(components))
        strata.setdefault(idx, []).append(rule)
    return [strata[i] for i in sorted(strata)]


# ---------------------------------------------------------------------------
# whole-program analysis
# ---------------------------------------------------------------------------
@dataclass
class AnalyzedProgram:
    """A resolved, safety- and type-checked program, ready to evaluate."""

    schema: Schema           # extended with function backing associations
    rules: tuple[Rule, ...]  # resolved rules
    goal: Goal | None
    safety: dict[int, SafetyReport]  # by rule index
    has_negation: bool
    has_deletion: bool
    has_invention: bool
    #: indexes of rules with no error diagnostics; ``None`` in fail-fast
    #: mode, where reaching the result implies every rule is clean
    clean_indices: tuple[int, ...] | None = None

    def strata(self) -> list[list[Rule]]:
        return stratify(Program(self.rules, self.goal), self.schema)

    def clean_rules(self) -> list[tuple[int, Rule, SafetyReport]]:
        """(index, rule, safety report) of every error-free rule."""
        indices = (
            range(len(self.rules))
            if self.clean_indices is None else self.clean_indices
        )
        return [(i, self.rules[i], self.safety[i]) for i in indices]


def analyze_program(
    program: Program, schema: Schema, collector: Collector | None = None,
) -> AnalyzedProgram:
    """Resolve, type-check, and safety-check a program.

    Without a collector the first problem raises (fail-fast, the engine
    API).  With a collector every diagnostic of every rule is recorded
    and a best-effort :class:`AnalyzedProgram` is returned whose
    ``clean_indices`` names the rules that analyzed without errors —
    ``repro lint`` runs its warning passes over exactly those.
    """
    extended = schema_with_functions(schema)
    resolved: list[Rule] = []
    safety: dict[int, SafetyReport] = {}
    clean: list[int] = []
    has_negation = has_deletion = has_invention = False
    for idx, rule in enumerate(program.rules):
        before = len(collector.errors()) if collector is not None else 0
        r = resolve_rule(rule, extended, collector)
        check_types(r, extended, collector)
        report = check_safety(r, extended, collector)
        safety[idx] = report
        resolved.append(r)
        if collector is None or len(collector.errors()) == before:
            clean.append(idx)
            has_invention |= report.invents_oid
            has_negation |= any(l.negated for l in r.body)
            if isinstance(r.head, Literal) and r.head.negated:
                has_deletion = True
    goal = (
        resolve_goal(program.goal, extended, collector)
        if program.goal else None
    )
    return AnalyzedProgram(
        schema=extended,
        rules=tuple(resolved),
        goal=goal,
        safety=safety,
        has_negation=has_negation,
        has_deletion=has_deletion,
        has_invention=has_invention,
        clean_indices=tuple(clean) if collector is not None else None,
    )

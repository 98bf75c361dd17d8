"""Abstract syntax of the LOGRES rule language (Section 3.1).

A rule is ``L <- L1, ..., Ln`` where each literal is positive or negated.
Literals over class or association predicates carry three kinds of
variables:

* ordinary typed variables bound to attribute values,
* oid variables, written ``self X`` (values invisible to users),
* at most one *tuple variable* standing for the whole tuple (including the
  oid for class predicates).

Arguments are referenced by label; a labeled argument's term may itself be
a :class:`Pattern`, which matches into nested tuples and *dereferences*
oid-valued components (the paper's ``school(dean(self X))``).

Built-in literals (member, union, append, count, comparisons, arithmetic)
are untyped; their variables must also occur in an ordinary literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.span import Span
from repro.values.complex import Value, value_repr

# Span is re-exported here for convenience: it is carried by Rule,
# Literal, BuiltinLiteral, FunctionHead and Goal when the node came from
# the parser; programmatically built nodes have span=None.


class Term:
    """Abstract base of all terms."""

    __slots__ = ()

    def variables(self) -> Iterator["Var"]:
        return iter(())


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A variable.  By convention names start with an uppercase letter."""

    name: str

    def variables(self) -> Iterator["Var"]:
        yield self

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant(Term):
    """A ground value: elementary, or a complex value literal."""

    value: Value

    def __repr__(self) -> str:
        return value_repr(self.value)


@dataclass(frozen=True, slots=True)
class FunctionApp(Term):
    """An application of a data function, e.g. ``desc(Y)``.

    In term position it denotes the *set* of results for the given
    arguments; inside ``member(X, desc(Y))`` it denotes the function graph.
    """

    name: str
    args: tuple[Term, ...] = ()

    def variables(self) -> Iterator[Var]:
        for a in self.args:
            yield from a.variables()

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True, slots=True)
class ArithExpr(Term):
    """An arithmetic expression term, e.g. ``Y + 1``."""

    op: str  # '+', '-', '*', '/', 'mod'
    left: Term
    right: Term

    def variables(self) -> Iterator[Var]:
        yield from self.left.variables()
        yield from self.right.variables()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, slots=True)
class CollectionTerm(Term):
    """A collection literal containing variables, e.g. ``{X, Y}``.

    Resolved to a concrete value once all element terms are bound.
    ``kind`` is ``"set"``, ``"multiset"`` or ``"sequence"``.
    """

    kind: str
    elements: tuple[Term, ...]

    def variables(self) -> Iterator[Var]:
        for e in self.elements:
            yield from e.variables()

    def __repr__(self) -> str:
        open_, close = {
            "set": ("{", "}"),
            "multiset": ("[", "]"),
            "sequence": ("<", ">"),
        }[self.kind]
        inner = ", ".join(repr(e) for e in self.elements)
        return f"{open_}{inner}{close}"


@dataclass(frozen=True, slots=True, init=False)
class Args:
    """The argument list of a literal or nested pattern.

    ``labeled`` holds (label, term) pairs; ``self_term`` the oid variable
    or constant following the ``self`` keyword; ``tuple_var`` the single
    unlabeled variable standing for the whole tuple.

    ``positional`` holds unlabeled terms as written in source text (the
    paper's ``advises(X1, Y1)``).  They are resolved against the schema by
    :func:`repro.language.analysis.resolve_positional`: when a literal is
    all-positional with as many terms as the predicate has fields they map
    to fields in declaration order, and a single unlabeled variable
    otherwise becomes the tuple variable.  The engine only accepts
    resolved (positional-free) literals.
    """

    labeled: tuple[tuple[str, Term], ...]
    self_term: Term | None
    tuple_var: Var | None
    positional: tuple[Term, ...]

    def __init__(self, labeled=(), self_term=None, tuple_var=None,
                 positional=()):
        object.__setattr__(
            self,
            "labeled",
            tuple((label.lower(), term) for label, term in labeled),
        )
        object.__setattr__(self, "self_term", self_term)
        object.__setattr__(self, "tuple_var", tuple_var)
        object.__setattr__(self, "positional", tuple(positional))

    @property
    def is_empty(self) -> bool:
        return (
            not self.labeled
            and self.self_term is None
            and self.tuple_var is None
            and not self.positional
        )

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.labeled)

    def variables(self) -> Iterator[Var]:
        for _, term in self.labeled:
            yield from term.variables()
        if self.self_term is not None:
            yield from self.self_term.variables()
        if self.tuple_var is not None:
            yield self.tuple_var
        for term in self.positional:
            yield from term.variables()

    def __repr__(self) -> str:
        parts = []
        if self.self_term is not None:
            parts.append(f"self {self.self_term!r}")
        parts.extend(f"{label} {term!r}" for label, term in self.labeled)
        if self.tuple_var is not None:
            parts.append(repr(self.tuple_var))
        parts.extend(repr(t) for t in self.positional)
        return ", ".join(parts)


@dataclass(frozen=True, slots=True)
class Pattern(Term):
    """A nested pattern term: matches a tuple component or dereferences an
    oid-valued component into the referenced object's attributes."""

    args: Args

    def variables(self) -> Iterator[Var]:
        return self.args.variables()

    def __repr__(self) -> str:
        return f"({self.args!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """An ordinary literal over a class or association predicate."""

    pred: str
    args: Args = field(default_factory=Args)
    negated: bool = False
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pred", self.pred.lower())

    def variables(self) -> Iterator[Var]:
        return self.args.variables()

    def negate(self) -> "Literal":
        return Literal(self.pred, self.args, not self.negated,
                       span=self.span)

    def __repr__(self) -> str:
        sign = "~" if self.negated else ""
        return f"{sign}{self.pred}({self.args!r})"


@dataclass(frozen=True, slots=True)
class BuiltinLiteral:
    """A built-in predicate literal, e.g. ``member(X, S)`` or ``X < Y``.

    The conventional result position of constructive built-ins (union,
    append, ...) is the **last** argument.
    """

    name: str
    args: tuple[Term, ...] = ()
    negated: bool = False
    span: Span | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.lower())

    @property
    def pred(self) -> str:  # uniform access alongside Literal
        return self.name

    def variables(self) -> Iterator[Var]:
        for a in self.args:
            yield from a.variables()

    def negate(self) -> "BuiltinLiteral":
        return BuiltinLiteral(self.name, self.args, not self.negated,
                              span=self.span)

    def __repr__(self) -> str:
        sign = "~" if self.negated else ""
        inner = ", ".join(repr(a) for a in self.args)
        return f"{sign}{self.name}({inner})"


BodyLiteral = Union[Literal, BuiltinLiteral]


@dataclass(frozen=True, slots=True)
class FunctionHead:
    """A head of the form ``member(X, f(Y1, ..., Yk))`` defining a data
    function (Examples 2.2 and 3.2)."""

    function: str
    element: Term
    args: tuple[Term, ...] = ()
    negated: bool = False
    span: Span | None = field(default=None, compare=False)

    def variables(self) -> Iterator[Var]:
        yield from self.element.variables()
        for a in self.args:
            yield from a.variables()

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        sign = "~" if self.negated else ""
        return f"{sign}member({self.element!r}, {self.function}({inner}))"


@dataclass(frozen=True, slots=True)
class Rule:
    """One rule ``head <- body``.  An empty body makes the rule a fact.

    A negated head expresses deletion; a :class:`FunctionHead` populates a
    data function; a denial (integrity constraint) has ``head = None``.
    """

    head: Literal | FunctionHead | None
    body: tuple[BodyLiteral, ...] = ()
    name: str = ""
    span: Span | None = field(default=None, compare=False)

    @property
    def is_fact(self) -> bool:
        return not self.body and self.head is not None

    @property
    def is_denial(self) -> bool:
        return self.head is None

    def head_variables(self) -> list[Var]:
        if self.head is None:
            return []
        seen: list[Var] = []
        for v in self.head.variables():
            if v not in seen:
                seen.append(v)
        return seen

    def body_variables(self) -> list[Var]:
        seen: list[Var] = []
        for lit in self.body:
            for v in lit.variables():
                if v not in seen:
                    seen.append(v)
        return seen

    def __repr__(self) -> str:
        head = "" if self.head is None else repr(self.head)
        if not self.body:
            return f"{head}."
        body = ", ".join(repr(l) for l in self.body)
        return f"{head} <- {body}."


@dataclass(frozen=True, slots=True)
class Goal:
    """A conjunctive goal ``?- L1, ..., Ln`` evaluated against an instance.

    The answer is the set of bindings of the goal's free variables.
    """

    literals: tuple[BodyLiteral, ...]
    span: Span | None = field(default=None, compare=False)

    def variables(self) -> list[Var]:
        seen: list[Var] = []
        for lit in self.literals:
            for v in lit.variables():
                if v not in seen:
                    seen.append(v)
        return seen

    def __repr__(self) -> str:
        return "?- " + ", ".join(repr(l) for l in self.literals) + "."


@dataclass(frozen=True, slots=True)
class Program:
    """A set of rules with an optional goal."""

    rules: tuple[Rule, ...] = ()
    goal: Goal | None = None

    def __repr__(self) -> str:
        lines = [repr(r) for r in self.rules]
        if self.goal is not None:
            lines.append(repr(self.goal))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# convenience constructors (used heavily in tests and examples)
# ---------------------------------------------------------------------------
def v(name: str) -> Var:
    """Shorthand for :class:`Var`."""
    return Var(name)


def c(value: Value) -> Constant:
    """Shorthand for :class:`Constant`."""
    return Constant(value)


def _coerce_term(x) -> Term:
    if isinstance(x, Term):
        return x
    return Constant(x)


def lit(pred: str, *, self_: Term | None = None, tuple_: Var | None = None,
        negated: bool = False, **labeled) -> Literal:
    """Build a literal with keyword-labeled arguments.

    >>> lit("person", name=v("X"), self_=v("S"))
    person(self S, name X)
    """
    return Literal(
        pred,
        Args(
            labeled=tuple((k, _coerce_term(t)) for k, t in labeled.items()),
            self_term=self_,
            tuple_var=tuple_,
        ),
        negated=negated,
    )


def builtin(name: str, *args, negated: bool = False) -> BuiltinLiteral:
    """Build a built-in literal from terms or plain Python values."""
    return BuiltinLiteral(
        name, tuple(_coerce_term(a) for a in args), negated=negated
    )


def rule(head, *body, name: str = "") -> Rule:
    """Build a rule from a head literal and body literals."""
    return Rule(head, tuple(body), name=name)


def fact(pred: str, **labeled) -> Rule:
    """Build a ground fact rule."""
    return Rule(lit(pred, **labeled))


def goal(*literals) -> Goal:
    return Goal(tuple(literals))

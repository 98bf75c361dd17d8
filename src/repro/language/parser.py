"""Recursive-descent parser for LOGRES source text.

A source unit is a sequence of sections::

    domains
      name = string.
      score = (integer, integer).
    classes
      person = (name, address: string).
      student = (person, school: string).
      student isa person.
    associations
      advises = (professor, student).
    functions
      desc: person -> {person}.
      member(X, desc(Y)) <- parent(par Y, chil X).
    rules
      ancestor(anc X, des Y) <- parent(par X), Y = desc(X).
    goal
      ?- ancestor(anc X).

Conventions (regularized from the paper's informal examples):

* type, predicate, label and function names are case-insensitive
  (normalized to lowercase); hyphens in names become underscores;
* inside rules, identifiers starting with an uppercase letter or ``_``
  are variables; string constants are double-quoted;
* ``~`` (or ``not``) negates a literal; a negated head is a deletion;
* a headless rule ``<- body.`` is a passive constraint (denial);
* built-ins put their result last: ``union(X, Y, Z)`` means ``Z = X ∪ Y``;
* unlabeled components of a tuple type take their type's name as label
  (duplicates get ``_2``, ``_3``, ... suffixes, the paper's "labelling
  mechanism" applied automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParseError
from repro.language.ast import (
    Args,
    ArithExpr,
    BuiltinLiteral,
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
from repro.language.builtins import is_builtin
from repro.language.lexer import Token, tokenize
from repro.span import Span
from repro.types.descriptors import (
    ELEMENTARY_TYPES,
    MultisetType,
    NamedType,
    SequenceType,
    SetType,
    TupleField,
    TupleType,
    TypeDescriptor,
)
from repro.types.equations import (
    FunctionDecl,
    IsaDeclaration,
    Kind,
    TypeEquation,
)
from repro.types.schema import Schema
from repro.values.complex import (
    MultisetValue,
    SequenceValue,
    SetValue,
)
from repro.values.oids import NIL

_SECTION_KINDS = {
    "domains": Kind.DOMAIN, "domain": Kind.DOMAIN,
    "classes": Kind.CLASS, "class": Kind.CLASS,
    "associations": Kind.ASSOCIATION, "association": Kind.ASSOCIATION,
}
_SECTION_HEADERS = set(_SECTION_KINDS) | {
    "functions", "function", "rules", "rule", "goal",
}
_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass
class ParsedUnit:
    """The outcome of parsing one source unit (schema fragment + program)."""

    equations: list[TypeEquation] = field(default_factory=list)
    isa: list[IsaDeclaration] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    goal: Goal | None = None

    def schema(self, base: Schema | None = None) -> Schema:
        """Build (and validate) the schema of this unit.

        ``base`` supplies surrounding definitions for fragments that
        reference pre-existing types (module type equations, Section 4.1).
        """
        equations = dict(base.equations) if base else {}
        for eq in self.equations:
            equations[eq.name] = eq
        isa = list(base.isa_declarations) if base else []
        for decl in self.isa:
            if decl not in isa:
                isa.append(decl)
        functions = dict(base.functions) if base else {}
        for f in self.functions:
            functions[f.name] = f
        return Schema(equations, tuple(isa), functions)

    def program(self) -> Program:
        return Program(tuple(self.rules), self.goal)


def parse_source(text: str) -> ParsedUnit:
    """Parse a full LOGRES source unit."""
    return _Parser(text).parse_unit()


def parse_schema_source(text: str, base: Schema | None = None) -> Schema:
    """Parse source text and return its validated schema."""
    return parse_source(text).schema(base)


def parse_program(text: str) -> Program:
    """Parse rule/goal text; a missing section header defaults to rules."""
    parser = _Parser(text)
    unit = parser.parse_unit(default_section="rules")
    return unit.program()


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self._anon = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind == "symbol" and tok.value == sym:
            return self.advance()
        raise self.error(f"expected {sym!r}, found {tok.text!r}")

    def accept_symbol(self, sym: str) -> bool:
        tok = self.peek()
        if tok.kind == "symbol" and tok.value == sym:
            self.advance()
            return True
        return False

    def accept_keyword(self, kw: str) -> bool:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == kw:
            self.advance()
            return True
        return False

    def at_keyword(self, *kws: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in kws

    def take_name(self, what: str = "name") -> str:
        """A name token; variable-shaped identifiers are accepted and
        lowercased (schema sections are case-insensitive)."""
        tok = self.peek()
        if tok.kind in ("name", "variable"):
            self.advance()
            return str(tok.value).lower()
        raise self.error(f"expected {what}, found {tok.text!r}")

    def fresh_var(self) -> Var:
        self._anon += 1
        return Var(f"_G{self._anon}")

    def span(self, tok: Token | None = None) -> Span:
        """The source location of ``tok`` (default: the current token)."""
        tok = tok or self.peek()
        return Span(tok.line, tok.column)

    # ------------------------------------------------------------------
    # unit & sections
    # ------------------------------------------------------------------
    def parse_unit(self, default_section: str | None = None) -> ParsedUnit:
        unit = ParsedUnit()
        section = default_section
        while self.peek().kind != "eof":
            if self.at_keyword(*_SECTION_HEADERS):
                section = self.advance().value
                self.accept_keyword("section")
                self.accept_symbol(":")
                continue
            if section is None:
                raise self.error(
                    "expected a section header (domains / classes /"
                    " associations / functions / rules / goal)"
                )
            if section in _SECTION_KINDS:
                self.parse_schema_statement(unit, _SECTION_KINDS[section])
            elif section in ("functions", "function"):
                self.parse_function_statement(unit)
            elif section in ("rules", "rule"):
                unit.rules.append(self.parse_rule())
            else:  # goal
                if unit.goal is not None:
                    raise self.error("multiple goals in one unit")
                unit.goal = self.parse_goal()
        return unit

    # ------------------------------------------------------------------
    # schema statements
    # ------------------------------------------------------------------
    def parse_schema_statement(self, unit: ParsedUnit, kind: Kind) -> None:
        span = self.span()
        name = self.take_name("type name")
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == "isa":
            self.advance()
            sup = self.take_name("superclass name")
            self.expect_symbol(".")
            unit.isa.append(IsaDeclaration(name, sup))
            return
        if tok.kind in ("name", "variable") and (
            self.peek(1).kind == "keyword" and self.peek(1).value == "isa"
        ):
            label = self.take_name("label")
            self.advance()  # isa
            sup = self.take_name("superclass name")
            self.expect_symbol(".")
            unit.isa.append(IsaDeclaration(name, sup, label))
            return
        self.expect_symbol("=")
        rhs = self.parse_type_expr()
        self.expect_symbol(".")
        unit.equations.append(TypeEquation(name, kind, rhs, span=span))

    def parse_type_expr(self) -> TypeDescriptor:
        tok = self.peek()
        if tok.kind == "symbol" and tok.value == "(":
            return self.parse_tuple_type()
        if tok.kind == "symbol" and tok.value in ("{", "[", "<"):
            closing = {"{": "}", "[": "]", "<": ">"}[tok.value]
            ctor = {"{": SetType, "[": MultisetType, "<": SequenceType}[
                tok.value
            ]
            self.advance()
            element = self.parse_type_expr()
            self.expect_symbol(closing)
            return ctor(element)
        name = self.take_name("type name")
        if name in ELEMENTARY_TYPES:
            return ELEMENTARY_TYPES[name]
        return NamedType(name)

    def parse_tuple_type(self) -> TupleType:
        self.expect_symbol("(")
        fields: list[TupleField] = []
        used: set[str] = set()
        if not self.accept_symbol(")"):
            while True:
                fields.append(self.parse_tuple_component(used))
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
        return TupleType(tuple(fields))

    def parse_tuple_component(self, used: set[str]) -> TupleField:
        tok = self.peek()
        if tok.kind in ("name", "variable"):
            nxt = self.peek(1)
            label_like = (
                (nxt.kind == "symbol" and nxt.value in (":", "(", "{", "[",
                                                        "<"))
                or nxt.kind in ("name", "variable")
            )
            if label_like:
                label = self.take_name("label")
                self.accept_symbol(":")
                t = self.parse_type_expr()
                if label in used:
                    raise self.error(f"duplicate label {label!r}")
                used.add(label)
                return TupleField(label, t)
            # unlabeled named component: label defaults to the type name
            t = self.parse_type_expr()
            base = t.name if isinstance(t, NamedType) else t.name  # type: ignore[attr-defined]
            label = base
            suffix = 2
            while label in used:
                label = f"{base}_{suffix}"
                suffix += 1
            used.add(label)
            return TupleField(label, t)
        raise self.error(
            "tuple components must be named types or 'label: type'"
        )

    # ------------------------------------------------------------------
    # function declarations
    # ------------------------------------------------------------------
    def parse_function_statement(self, unit: ParsedUnit) -> None:
        if self._statement_has_arrow():
            unit.functions.append(self.parse_function_decl())
        else:
            unit.rules.append(self.parse_rule())

    def _statement_has_arrow(self) -> bool:
        depth = 0
        offset = 0
        while True:
            tok = self.peek(offset)
            if tok.kind == "eof":
                return False
            if tok.kind == "symbol":
                if tok.value in ("(", "{", "["):
                    depth += 1
                elif tok.value in (")", "}", "]"):
                    depth -= 1
                elif tok.value == "->" and depth == 0:
                    return True
                elif tok.value in (".", "<-") and depth == 0:
                    return False
            offset += 1

    def parse_function_decl(self) -> FunctionDecl:
        name = self.take_name("function name")
        self.accept_symbol(":")
        arg_types: list[TypeDescriptor] = []
        tok = self.peek()
        if tok.kind == "symbol" and tok.value == "(":
            self.advance()
            if not self.accept_symbol(")"):
                while True:
                    arg_types.append(self.parse_type_expr())
                    if self.accept_symbol(")"):
                        break
                    self.expect_symbol(",")
        elif not (tok.kind == "symbol" and tok.value == "->"):
            arg_types.append(self.parse_type_expr())
        self.expect_symbol("->")
        result = self.parse_type_expr()
        self.expect_symbol(".")
        if not isinstance(result, SetType):
            raise self.error(
                f"data function {name!r} must return a set type"
            )
        labels = tuple(f"arg{i}" for i in range(len(arg_types)))
        return FunctionDecl(name, tuple(arg_types), result, labels)

    # ------------------------------------------------------------------
    # rules and goals
    # ------------------------------------------------------------------
    def parse_rule(self) -> Rule:
        span = self.span()
        if self.accept_symbol("<-"):
            body = self.parse_body()
            self.expect_symbol(".")
            return Rule(None, tuple(body), span=span)
        negated = self.accept_symbol("~") or self.accept_keyword("not")
        head = self.parse_head(negated)
        body: list = []
        if self.accept_symbol("<-") and not (
            self.peek().kind == "symbol" and self.peek().value == "."
        ):
            body = self.parse_body()
        self.expect_symbol(".")
        return Rule(head, tuple(body), span=span)

    def parse_head(self, negated: bool) -> Literal | FunctionHead:
        tok = self.peek()
        span = self.span(tok)
        if tok.kind != "name":
            raise self.error(
                f"rule head must start with a predicate name,"
                f" found {tok.text!r}"
            )
        name = str(tok.value)
        if name == "member":
            # member(Element, f(Args)) head defines a data function
            self.advance()
            self.expect_symbol("(")
            element = self.parse_term()
            self.expect_symbol(",")
            fn = self.parse_term()
            self.expect_symbol(")")
            if not isinstance(fn, FunctionApp):
                raise self.error(
                    "the second argument of a member(...) head must be a"
                    " data-function application"
                )
            return FunctionHead(fn.name, element, fn.args, negated,
                                span=span)
        # builtin names other than member are allowed as heads only when
        # they denote user predicates shadowing the builtin
        literal = self.parse_ordinary_literal(negated)
        return literal

    def parse_goal(self) -> Goal:
        span = self.span()
        self.accept_symbol("?-")
        body = self.parse_body()
        self.expect_symbol(".")
        return Goal(tuple(body), span=span)

    def parse_body(self) -> list:
        out = [self.parse_body_literal()]
        while self.accept_symbol(","):
            out.append(self.parse_body_literal())
        return out

    def parse_body_literal(self):
        negated = self.accept_symbol("~") or self.accept_keyword("not")
        tok = self.peek()
        span = self.span(tok)
        if tok.kind == "name":
            name = str(tok.value)
            nxt = self.peek(1)
            if is_builtin(name) and nxt.kind == "symbol" and nxt.value == "(":
                # a user predicate may shadow a builtin name (arity or
                # argument style decides); fall back to an ordinary literal
                checkpoint = self.pos
                try:
                    call = self.parse_builtin_call(negated)
                except ParseError:
                    self.pos = checkpoint
                else:
                    from repro.language.builtins import get_builtin

                    if len(call.args) == get_builtin(name).arity:
                        return call
                    self.pos = checkpoint
            if nxt.kind == "symbol" and nxt.value == "(":
                checkpoint = self.pos
                literal = self.parse_ordinary_literal(negated)
                after = self.peek()
                if (
                    after.kind == "symbol"
                    and after.value in _COMPARISONS
                    and not literal.args.labeled
                    and literal.args.self_term is None
                ):
                    # it was actually a term: f(X) = Y  (data function)
                    self.pos = checkpoint
                    return self.parse_comparison(negated)
                return literal
            # bare predicate (0-argument) or the left side of a comparison
            if nxt.kind == "symbol" and nxt.value in _COMPARISONS:
                return self.parse_comparison(negated)
            self.advance()
            return Literal(name, Args(), negated, span=span)
        return self.parse_comparison(negated)

    def parse_comparison(self, negated: bool) -> BuiltinLiteral:
        span = self.span()
        left = self.parse_term()
        tok = self.peek()
        if not (tok.kind == "symbol" and tok.value in _COMPARISONS):
            raise self.error(
                f"expected a comparison operator, found {tok.text!r}"
            )
        op = self.advance().value
        right = self.parse_term()
        return BuiltinLiteral(str(op), (left, right), negated, span=span)

    def parse_builtin_call(self, negated: bool) -> BuiltinLiteral:
        span = self.span()
        name = self.take_name("builtin name")
        self.expect_symbol("(")
        args: list[Term] = []
        if not self.accept_symbol(")"):
            while True:
                args.append(self.parse_term())
                if self.accept_symbol(")"):
                    break
                self.expect_symbol(",")
        return BuiltinLiteral(name, tuple(args), negated, span=span)

    def parse_ordinary_literal(self, negated: bool) -> Literal:
        span = self.span()
        name = self.take_name("predicate name")
        args = Args()
        if self.accept_symbol("("):
            args = self.parse_args()
            # closing ')' consumed by parse_args
        return Literal(name, args, negated, span=span)

    def parse_args(self) -> Args:
        """Parse literal arguments up to and including the closing ')'."""
        labeled: list[tuple[str, Term]] = []
        self_term: Term | None = None
        positional: list[Term] = []
        if self.accept_symbol(")"):
            return Args()
        while True:
            tok = self.peek()
            if tok.kind == "keyword" and tok.value == "self":
                self.advance()
                self.accept_symbol(":")
                if self_term is not None:
                    raise self.error("duplicate self argument")
                self_term = self.parse_term()
            elif tok.kind == "name" and not is_builtin(str(tok.value)):
                label = str(tok.value)
                nxt = self.peek(1)
                if nxt.kind == "symbol" and nxt.value == "(":
                    # nested pattern: label(args...)
                    self.advance()
                    self.advance()  # '('
                    inner = self.parse_args()
                    labeled.append((label, Pattern(inner)))
                elif nxt.kind == "symbol" and nxt.value == ":":
                    self.advance()
                    self.advance()
                    labeled.append((label, self.parse_term()))
                elif nxt.kind == "symbol" and nxt.value in (",", ")"):
                    raise self.error(
                        f"label {label!r} has no value; string constants"
                        " must be double-quoted"
                    )
                else:
                    self.advance()
                    labeled.append((label, self.parse_term()))
            else:
                positional.append(self.parse_term())
            if self.accept_symbol(")"):
                break
            self.expect_symbol(",")
        tuple_var = None
        if len(positional) == 1 and isinstance(positional[0], Var) and (
            labeled or self_term is not None
        ):
            # mixed labeled + one bare variable: unambiguously the tuple var
            tuple_var = positional[0]
            positional = []
        return Args(
            labeled=tuple(labeled),
            self_term=self_term,
            tuple_var=tuple_var,
            positional=tuple(positional),
        )

    # ------------------------------------------------------------------
    # terms
    # ------------------------------------------------------------------
    def parse_term(self) -> Term:
        return self.parse_additive()

    def parse_additive(self) -> Term:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.value in ("+", "-"):
                self.advance()
                right = self.parse_multiplicative()
                left = ArithExpr(str(tok.value), left, right)
            else:
                return left

    def parse_multiplicative(self) -> Term:
        left = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == "symbol" and tok.value in ("*", "/"):
                self.advance()
                right = self.parse_primary()
                left = ArithExpr(str(tok.value), left, right)
            else:
                return left

    def parse_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Constant(tok.value)
        if tok.kind == "string":
            self.advance()
            return Constant(tok.value)
        if tok.kind == "keyword":
            if tok.value == "true":
                self.advance()
                return Constant(True)
            if tok.value == "false":
                self.advance()
                return Constant(False)
            if tok.value == "nil":
                self.advance()
                return Constant(NIL)
            raise self.error(f"unexpected keyword {tok.text!r} in term")
        if tok.kind == "variable":
            self.advance()
            if tok.value == "_":
                return self.fresh_var()
            return Var(str(tok.value))
        if tok.kind == "symbol" and tok.value == "-":
            self.advance()
            inner = self.parse_primary()
            if isinstance(inner, Constant) and isinstance(
                inner.value, (int, float)
            ):
                return Constant(-inner.value)
            return ArithExpr("-", Constant(0), inner)
        if tok.kind == "symbol" and tok.value in ("{", "[", "<"):
            closing = {"{": "}", "[": "]", "<": ">"}[tok.value]
            self.advance()
            elements: list[Term] = []
            if not self.accept_symbol(closing):
                while True:
                    elements.append(self.parse_term())
                    if self.accept_symbol(closing):
                        break
                    self.expect_symbol(",")
            return self._collection_term(str(tok.value), elements)
        if tok.kind == "symbol" and tok.value == "(":
            self.advance()
            inner = self.parse_args()
            if (
                len(inner.positional) == 1
                and not inner.labeled
                and inner.self_term is None
            ):
                return inner.positional[0]  # parenthesized term
            return Pattern(inner)  # tuple construction / pattern
        if tok.kind == "name":
            name = self.take_name()
            if self.accept_symbol("("):
                args: list[Term] = []
                if not self.accept_symbol(")"):
                    while True:
                        args.append(self.parse_term())
                        if self.accept_symbol(")"):
                            break
                        self.expect_symbol(",")
                return FunctionApp(name, tuple(args))
            return FunctionApp(name, ())
        raise self.error(f"expected a term, found {tok.text!r}")

    def _collection_term(self, opener: str, elements: list[Term]) -> Term:
        if all(isinstance(e, Constant) for e in elements):
            values = [e.value for e in elements]  # type: ignore[union-attr]
            if opener == "{":
                return Constant(SetValue(values))
            if opener == "[":
                return Constant(MultisetValue(values))
            return Constant(SequenceValue(values))
        from repro.language.ast import CollectionTerm

        kind = {"{": "set", "[": "multiset", "<": "sequence"}[opener]
        return CollectionTerm(kind, tuple(elements))

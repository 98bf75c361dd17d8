"""LOGRES schemas: named type equations plus an ``isa`` hierarchy.

A schema (Appendix A, Definition 2) is a pair ``(Σ, isa)`` where ``Σ`` maps
every domain, class, and association name to its type descriptor and
``isa`` is a partial order over class names such that:

* domain descriptors contain no class names;
* ``C1 isa C2`` implies ``Σ(C1) ≼ Σ(C2)``;
* multiple inheritance is only allowed among classes sharing a common
  ancestor, so the oid universe partitions into disjoint hierarchies;
* associations never contain associations.

**Inheritance flattening.**  Following the paper's examples
(``STUDENT = (PERSON, SCHOOL); STUDENT isa PERSON`` makes ``name`` and
``address`` direct properties of ``STUDENT``), an occurrence of a
superclass in the RHS of a declared subclass is *inlined*: the superclass's
effective fields are spliced into the subclass's tuple type.  All other
class occurrences are oid references (object sharing).  Conflicting
inherited labels are renamed ``<superclass>_<label>`` (the paper's
"renaming policy").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsaError, SchemaError, TypeEquationError
from repro.types.descriptors import (
    ELEMENTARY_TYPES,
    ElementaryType,
    MultisetType,
    NamedType,
    SequenceType,
    SetType,
    TupleField,
    TupleType,
    TypeDescriptor,
)
from repro.types.equations import FunctionDecl, IsaDeclaration, Kind, TypeEquation


def _norm(name: str) -> str:
    return name.lower()


@dataclass
class Schema:
    """An immutable-by-convention validated LOGRES schema.

    Build one with :class:`SchemaBuilder` (or the parser); the constructor
    validates every structural property and raises
    :class:`~repro.errors.SchemaError` on the first violation.
    """

    equations: dict[str, TypeEquation]
    isa_declarations: tuple[IsaDeclaration, ...] = ()
    functions: dict[str, FunctionDecl] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._direct_supers: dict[str, list[IsaDeclaration]] = {}
        self._effective_cache: dict[str, TupleType] = {}
        for decl in self.isa_declarations:
            self._direct_supers.setdefault(decl.sub, []).append(decl)
        self._validate()

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        return _norm(name) in self.equations

    def kind_of(self, name: str) -> Kind:
        try:
            return self.equations[_norm(name)].kind
        except KeyError:
            raise SchemaError(f"unknown type name: {name!r}") from None

    def rhs_of(self, name: str) -> TypeDescriptor:
        try:
            return self.equations[_norm(name)].rhs
        except KeyError:
            raise SchemaError(f"unknown type name: {name!r}") from None

    def is_class(self, name: str) -> bool:
        eq = self.equations.get(_norm(name))
        return eq is not None and eq.kind is Kind.CLASS

    def is_association(self, name: str) -> bool:
        eq = self.equations.get(_norm(name))
        return eq is not None and eq.kind is Kind.ASSOCIATION

    def is_domain(self, name: str) -> bool:
        eq = self.equations.get(_norm(name))
        return eq is not None and eq.kind is Kind.DOMAIN

    @property
    def class_names(self) -> list[str]:
        return [n for n, e in self.equations.items() if e.kind is Kind.CLASS]

    @property
    def association_names(self) -> list[str]:
        return [
            n for n, e in self.equations.items() if e.kind is Kind.ASSOCIATION
        ]

    @property
    def domain_names(self) -> list[str]:
        return [n for n, e in self.equations.items() if e.kind is Kind.DOMAIN]

    @property
    def predicate_names(self) -> list[str]:
        """Names usable as predicates in rules: classes and associations."""
        return self.class_names + self.association_names

    # ------------------------------------------------------------------
    # isa hierarchy
    # ------------------------------------------------------------------
    def direct_superclasses(self, name: str) -> list[str]:
        return [d.sup for d in self._direct_supers.get(_norm(name), [])]

    def superclasses(self, name: str) -> list[str]:
        """All proper superclasses, nearest first, without duplicates."""
        out: list[str] = []
        frontier = [_norm(name)]
        while frontier:
            current = frontier.pop(0)
            for sup in self.direct_superclasses(current):
                if sup not in out:
                    out.append(sup)
                    frontier.append(sup)
        return out

    def subclasses(self, name: str) -> list[str]:
        """All proper subclasses of ``name``."""
        target = _norm(name)
        return [
            c for c in self.class_names if target in self.superclasses(c)
        ]

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive ``isa``: is ``sub`` a subclass of ``sup``?"""
        sub, sup = _norm(sub), _norm(sup)
        return sub == sup or sup in self.superclasses(sub)

    def same_hierarchy(self, c1: str, c2: str) -> bool:
        """Do two classes belong to the same generalization hierarchy?"""
        return self.hierarchy_root(c1) == self.hierarchy_root(c2)

    def hierarchy_root(self, name: str) -> str:
        """The unique root class of ``name``'s generalization hierarchy."""
        name = _norm(name)
        maximal = [
            s
            for s in [name] + self.superclasses(name)
            if not self.direct_superclasses(s)
        ]
        if len(maximal) != 1:  # pragma: no cover - excluded by validation
            raise IsaError(
                f"class {name!r} has several hierarchy roots: {maximal}"
            )
        return maximal[0]

    # ------------------------------------------------------------------
    # effective (inheritance-flattened) tuple types
    # ------------------------------------------------------------------
    def effective_type(self, name: str) -> TupleType:
        """The flattened tuple type of a class or association.

        Inheritance occurrences are spliced in; alias RHSs (a bare name)
        are expanded; oid-reference fields keep their :class:`NamedType`.
        """
        name = _norm(name)
        cached = self._effective_cache.get(name)
        if cached is not None:
            return cached
        result = self._compute_effective(name, frozenset())
        self._effective_cache[name] = result
        return result

    def _compute_effective(self, name: str, seen: frozenset[str]) -> TupleType:
        if name in seen:
            raise SchemaError(
                f"type equation of {name!r} is recursive through inheritance"
            )
        seen = seen | {name}
        eq = self.equations.get(name)
        if eq is None:
            raise SchemaError(f"unknown type name: {name!r}")
        rhs = eq.rhs
        if isinstance(rhs, NamedType):  # alias, e.g. the paper's IP = PAIR
            target = self.equations.get(_norm(rhs.name))
            if target is None:
                raise SchemaError(
                    f"{name!r} aliases unknown type {rhs.name!r}"
                )
            if isinstance(target.rhs, TupleType) or isinstance(
                target.rhs, NamedType
            ):
                return self._compute_effective(_norm(rhs.name), seen)
            raise SchemaError(
                f"{name!r} aliases {rhs.name!r}, whose RHS is not a tuple"
            )
        if not isinstance(rhs, TupleType):
            raise SchemaError(
                f"{name!r} is a {eq.kind} but its RHS is not a tuple type"
            )
        if eq.kind is Kind.ASSOCIATION:
            return rhs

        inherit_labels = self._inheritance_labels(name, rhs)
        out: list[TupleField] = []
        taken: set[str] = set()
        for f in rhs.fields:
            if f.label in inherit_labels:
                sup = inherit_labels[f.label]
                for inherited in self._compute_effective(sup, seen).fields:
                    label = inherited.label
                    if label in taken:
                        label = f"{sup}_{label}"  # renaming policy
                    if label in taken:
                        raise IsaError(
                            f"unresolvable label conflict {inherited.label!r}"
                            f" inheriting {sup!r} into {name!r}"
                        )
                    taken.add(label)
                    out.append(TupleField(label, inherited.type))
            else:
                if f.label in taken:
                    raise TypeEquationError(
                        f"duplicate label {f.label!r} in {name!r}"
                    )
                taken.add(f.label)
                out.append(f)
        return TupleType(tuple(out))

    def _inheritance_labels(self, name: str, rhs: TupleType) -> dict[str, str]:
        """Map RHS labels of class ``name`` to the superclass they inherit."""
        mapping: dict[str, str] = {}
        for decl in self._direct_supers.get(name, ()):
            if decl.label is not None:
                label = _norm(decl.label)
                if not rhs.has_label(label):
                    raise IsaError(
                        f"{name} {decl.label} isa {decl.sup}: no component"
                        f" labeled {decl.label!r} in the RHS of {name!r}"
                    )
            else:
                # the default occurrence is the component labeled by the
                # superclass's own name
                label = _norm(decl.sup)
                if not rhs.has_label(label):
                    raise IsaError(
                        f"{name} isa {decl.sup}: the RHS of {name!r} has no"
                        f" occurrence of {decl.sup!r} to inherit from"
                    )
            fld = rhs.field(label)
            if not (
                isinstance(fld.type, NamedType)
                and _norm(fld.type.name) == _norm(decl.sup)
            ):
                raise IsaError(
                    f"{name} isa {decl.sup}: component {label!r} has type"
                    f" {fld.type!r}, not {decl.sup!r}"
                )
            mapping[label] = _norm(decl.sup)
        return mapping

    def field_type(self, pred: str, label: str) -> TypeDescriptor:
        """Declared type of ``label`` in the effective tuple of ``pred``."""
        eff = self.effective_type(pred)
        try:
            return eff.field(_norm(label)).type
        except KeyError:
            raise SchemaError(
                f"predicate {pred!r} has no argument labeled {label!r}"
            ) from None

    def reference_fields(self, pred: str) -> list[TupleField]:
        """Effective fields of ``pred`` holding oid references to classes."""
        out = []
        for f in self.effective_type(pred).fields:
            if isinstance(f.type, NamedType) and self.is_class(f.type.name):
                out.append(f)
        return out

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for name, eq in self.equations.items():
            if name != eq.name:
                raise SchemaError(
                    f"equation key {name!r} does not match name {eq.name!r}"
                )
            if name in ELEMENTARY_TYPES:
                raise TypeEquationError(
                    f"{name!r} shadows an elementary type"
                )
            self._check_references(eq)
        self._check_isa()
        # computing every effective type surfaces alias/flattening errors
        for name, eq in self.equations.items():
            if eq.kind is not Kind.DOMAIN:
                self.effective_type(name)
        self._check_functions()

    def _check_references(self, eq: TypeEquation) -> None:
        for ref in sorted(eq.rhs.named_references()):
            if ref in ELEMENTARY_TYPES:
                continue
            target = self.equations.get(_norm(ref))
            if target is None:
                raise SchemaError(
                    f"equation for {eq.name!r} references unknown type"
                    f" {ref!r}"
                )
            if eq.kind is Kind.DOMAIN and target.kind is not Kind.DOMAIN:
                raise TypeEquationError(
                    f"domain {eq.name!r} references {target.kind}"
                    f" {ref!r}; domains may only use domains and"
                    " elementary types"
                )
            if target.kind is Kind.ASSOCIATION:
                # associations may never be nested; a class may alias an
                # association only as its entire RHS (e.g. IP = PAIR).
                is_alias = (
                    isinstance(eq.rhs, NamedType)
                    and _norm(eq.rhs.name) == _norm(ref)
                )
                if eq.kind is Kind.ASSOCIATION or not is_alias:
                    raise TypeEquationError(
                        f"{eq.kind} {eq.name!r} contains association"
                        f" {ref!r}; associations cannot be nested"
                    )

    def _check_isa(self) -> None:
        for decl in self.isa_declarations:
            for endpoint in (decl.sub, decl.sup):
                if not self.has(endpoint):
                    raise IsaError(
                        f"isa declaration {decl!r} references unknown"
                        f" type {endpoint!r}"
                    )
                if not self.is_class(endpoint):
                    raise IsaError(
                        f"isa declaration {decl!r}: {endpoint!r} is not a"
                        " class"
                    )
            if _norm(decl.sub) == _norm(decl.sup):
                raise IsaError(f"reflexive isa declaration: {decl!r}")
        # acyclicity
        for c in self.class_names:
            if c in self.superclasses(c):
                raise IsaError(f"isa cycle through class {c!r}")
        # unique hierarchy root (disjoint oid universes; restricted
        # multiple inheritance)
        for c in self.class_names:
            maximal = {
                s
                for s in [c] + self.superclasses(c)
                if not self.direct_superclasses(s)
            }
            if len(maximal) != 1:
                raise IsaError(
                    f"class {c!r} inherits from multiple hierarchies"
                    f" {sorted(maximal)}; multiple inheritance requires a"
                    " common ancestor"
                )
        # refinement: Σ(sub) ≼ Σ(sup)
        from repro.types.refinement import is_refinement

        for decl in self.isa_declarations:
            sub_t = self.effective_type(decl.sub)
            sup_t = self.effective_type(decl.sup)
            if not is_refinement(sub_t, sup_t, self):
                raise IsaError(
                    f"{decl!r} violates refinement: {sub_t!r} does not"
                    f" refine {sup_t!r}"
                )

    def _check_functions(self) -> None:
        for fname, decl in self.functions.items():
            if fname != _norm(decl.name):
                raise SchemaError(
                    f"function key {fname!r} does not match {decl.name!r}"
                )
            if self.has(fname):
                raise SchemaError(
                    f"function {fname!r} shadows a type of the same name"
                )
            if not isinstance(decl.result, SetType):
                raise TypeEquationError(
                    f"function {fname!r} must return a set type,"
                    f" got {decl.result!r}"
                )
            for t in decl.arg_types + (decl.result,):
                for ref in sorted(t.named_references()):
                    if ref not in ELEMENTARY_TYPES and not self.has(ref):
                        raise SchemaError(
                            f"function {fname!r} references unknown type"
                            f" {ref!r}"
                        )

    # ------------------------------------------------------------------
    # composition (used by module application, Section 4.1)
    # ------------------------------------------------------------------
    def union(self, other: "Schema") -> "Schema":
        """``S0 ∪ SM``: add the other schema's equations and declarations.

        A name defined in both with different RHSs is an error; identical
        redefinitions are tolerated.
        """
        equations = dict(self.equations)
        for name, eq in other.equations.items():
            if name in equations and equations[name] != eq:
                raise SchemaError(
                    f"conflicting redefinition of {name!r} in schema union"
                )
            equations[name] = eq
        isa = list(self.isa_declarations)
        for decl in other.isa_declarations:
            if decl not in isa:
                isa.append(decl)
        functions = dict(self.functions)
        for fname, decl in other.functions.items():
            if fname in functions and functions[fname] != decl:
                raise SchemaError(
                    f"conflicting redefinition of function {fname!r}"
                )
            functions[fname] = decl
        return Schema(equations, tuple(isa), functions)

    def difference(self, other: "Schema") -> "Schema":
        """``S0 − SM``: drop the other schema's equations and declarations."""
        equations = {
            n: eq for n, eq in self.equations.items()
            if n not in other.equations
        }
        isa = tuple(
            d
            for d in self.isa_declarations
            if d not in other.isa_declarations
            and d.sub in equations
            and d.sup in equations
        )
        functions = {
            n: f for n, f in self.functions.items() if n not in other.functions
        }
        return Schema(equations, isa, functions)

    def __repr__(self) -> str:
        return (
            f"Schema({len(self.domain_names)} domains,"
            f" {len(self.class_names)} classes,"
            f" {len(self.association_names)} associations,"
            f" {len(self.isa_declarations)} isa,"
            f" {len(self.functions)} functions)"
        )


class SchemaBuilder:
    """Fluent construction of schemas from Python code.

    >>> schema = (
    ...     SchemaBuilder()
    ...     .domain("name", STRING)
    ...     .clazz("person", ("name", "name"), ("address", STRING))
    ...     .clazz("student", ("person", "person"), ("school", STRING))
    ...     .isa("student", "person")
    ...     .build()
    ... )

    Field types may be :class:`TypeDescriptor` instances, names of
    previously declared types (strings), or the elementary names
    ``"integer"``, ``"string"``, ``"real"``, ``"boolean"``.
    """

    def __init__(self) -> None:
        self._equations: dict[str, TypeEquation] = {}
        self._isa: list[IsaDeclaration] = []
        self._functions: dict[str, FunctionDecl] = {}

    # -- type coercion --------------------------------------------------
    def _coerce(self, t) -> TypeDescriptor:
        if isinstance(t, TypeDescriptor):
            return t
        if isinstance(t, str):
            lowered = _norm(t)
            if lowered in ELEMENTARY_TYPES:
                return ELEMENTARY_TYPES[lowered]
            return NamedType(lowered)
        if isinstance(t, set) or isinstance(t, frozenset):
            (elem,) = t
            return SetType(self._coerce(elem))
        if isinstance(t, list):
            (elem,) = t
            return MultisetType(self._coerce(elem))
        if isinstance(t, tuple):
            return TupleType(
                tuple(
                    TupleField(_norm(label), self._coerce(ft))
                    for label, ft in t
                )
            )
        raise TypeEquationError(f"cannot interpret {t!r} as a type")

    def _tuple_rhs(self, fields) -> TypeDescriptor:
        if len(fields) == 1 and isinstance(fields[0], (str, TypeDescriptor)):
            # alias form: clazz("ip", "pair")
            return self._coerce(fields[0])
        return TupleType(
            tuple(
                TupleField(_norm(label), self._coerce(ft))
                for label, ft in fields
            )
        )

    # -- declarations ----------------------------------------------------
    def domain(self, name: str, rhs) -> "SchemaBuilder":
        self._add(TypeEquation(_norm(name), Kind.DOMAIN, self._coerce(rhs)))
        return self

    def clazz(self, name: str, *fields) -> "SchemaBuilder":
        self._add(
            TypeEquation(_norm(name), Kind.CLASS, self._tuple_rhs(fields))
        )
        return self

    def association(self, name: str, *fields) -> "SchemaBuilder":
        self._add(
            TypeEquation(
                _norm(name), Kind.ASSOCIATION, self._tuple_rhs(fields)
            )
        )
        return self

    def isa(self, sub: str, sup: str, label: str | None = None
            ) -> "SchemaBuilder":
        self._isa.append(
            IsaDeclaration(
                _norm(sub), _norm(sup), _norm(label) if label else None
            )
        )
        return self

    def function(
        self, name: str, arg_types, element_type, arg_labels=None
    ) -> "SchemaBuilder":
        args = tuple(self._coerce(t) for t in arg_types)
        labels = tuple(
            _norm(l) for l in (arg_labels or
                               [f"arg{i}" for i in range(len(args))])
        )
        self._functions[_norm(name)] = FunctionDecl(
            _norm(name), args, SetType(self._coerce(element_type)), labels
        )
        return self

    def _add(self, eq: TypeEquation) -> None:
        if eq.name in self._equations:
            raise TypeEquationError(f"duplicate type equation for {eq.name!r}")
        self._equations[eq.name] = eq

    def build(self) -> Schema:
        return Schema(dict(self._equations), tuple(self._isa),
                      dict(self._functions))

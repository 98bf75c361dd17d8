"""Modules ``(R_M, S_M, G_M)`` and the six application modes (Section 4.1).

A module encapsulates a set of rules, a set of type equations, and an
optional goal.  Applying it to a database state is qualified by an option
from the two-axis grid

====== ============== ==============
option rule effect    data effect
====== ============== ==============
RIDI   invariant      invariant (query)
RADI   addition       invariant
RDDI   deletion       invariant
RIDV   invariant      variant (EDB update)
RADV   addition       variant
RDDV   deletion       variant
====== ============== ==============

Data-variant modes never answer a goal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ModuleApplicationError
from repro.language.ast import Goal, Rule
from repro.language.parser import ParsedUnit, parse_source
from repro.types.equations import FunctionDecl, IsaDeclaration, TypeEquation
from repro.types.schema import Schema


class Mode(enum.Enum):
    """Module application options (Section 4.1)."""

    RIDI = "RIDI"
    RADI = "RADI"
    RDDI = "RDDI"
    RIDV = "RIDV"
    RADV = "RADV"
    RDDV = "RDDV"

    @property
    def data_variant(self) -> bool:
        return self.value.endswith("DV")

    @property
    def rule_effect(self) -> str:
        """'invariant', 'addition', or 'deletion'."""
        return {
            "RI": "invariant", "RA": "addition", "RD": "deletion"
        }[self.value[:2]]

    @property
    def allows_goal(self) -> bool:
        """Only data-invariant applications provide a goal answer."""
        return not self.data_variant


@dataclass
class Module:
    """A LOGRES module: rules ``R_M``, type equations ``S_M``, goal ``G_M``."""

    name: str = ""
    rules: tuple[Rule, ...] = ()
    equations: tuple[TypeEquation, ...] = ()
    isa: tuple[IsaDeclaration, ...] = ()
    functions: tuple[FunctionDecl, ...] = ()
    goal: Goal | None = None

    @classmethod
    def from_source(cls, text: str, name: str = "") -> "Module":
        """Build a module from LOGRES source text (any sections)."""
        unit: ParsedUnit = parse_source(text)
        return cls(
            name=name,
            rules=tuple(unit.rules),
            equations=tuple(unit.equations),
            isa=tuple(unit.isa),
            functions=tuple(unit.functions),
            goal=unit.goal,
        )

    def extend_schema(self, base: Schema) -> Schema:
        """``S0 ∪ SM`` (fragments validate only in combination with S0);
        ``base`` itself when the module declares no type, isa edge or
        function, so a write that keeps the schema keeps its object."""
        if not (self.equations or self.isa or self.functions):
            return base
        equations = dict(base.equations)
        for eq in self.equations:
            if eq.name in equations and equations[eq.name] != eq:
                raise ModuleApplicationError(
                    f"module {self.name!r} redefines type {eq.name!r}"
                    " incompatibly"
                )
            equations[eq.name] = eq
        isa = list(base.isa_declarations)
        for decl in self.isa:
            if decl not in isa:
                isa.append(decl)
        functions = dict(base.functions)
        for f in self.functions:
            if f.name in functions and functions[f.name] != f:
                raise ModuleApplicationError(
                    f"module {self.name!r} redefines function {f.name!r}"
                    " incompatibly"
                )
            functions[f.name] = f
        return Schema(equations, tuple(isa), functions)

    def shrink_schema(self, base: Schema) -> Schema:
        """``S0 − SM``."""
        removed = {eq.name for eq in self.equations}
        equations = {
            n: eq for n, eq in base.equations.items() if n not in removed
        }
        isa = tuple(
            d for d in base.isa_declarations
            if d not in self.isa and d.sub in equations
            and d.sup in equations
        )
        fn_removed = {f.name for f in self.functions}
        functions = {
            n: f for n, f in base.functions.items() if n not in fn_removed
        }
        return Schema(equations, isa, functions)

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return (
            f"Module({label}: {len(self.rules)} rules,"
            f" {len(self.equations)} equations,"
            f" goal={'yes' if self.goal else 'no'})"
        )

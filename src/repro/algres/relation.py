"""NF² relations: a named schema (tuple type) plus a set of tuples.

Relations are immutable; operators produce new relations.  Attribute
values may be elementary, oids, or nested tuples / sets / multisets /
sequences — the same value model as LOGRES, which is what makes the
LOGRES-to-ALGRES translation (``repro.compiler``) a pure schema mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import AlgebraError
from repro.types.descriptors import TupleField, TupleType, TypeDescriptor
from repro.values.complex import TupleValue


@dataclass(frozen=True)
class Relation:
    """An NF² relation: a tuple-type schema and a frozenset of rows."""

    name: str
    schema: TupleType
    rows: frozenset

    def __init__(self, name: str, schema: TupleType, rows: Iterable = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "schema", schema)
        checked = []
        labels = set(schema.labels)
        for row in rows:
            if not isinstance(row, TupleValue):
                raise AlgebraError(
                    f"relation {name!r}: row {row!r} is not a tuple value"
                )
            extra = set(row.labels) - labels
            if extra:
                raise AlgebraError(
                    f"relation {name!r}: row has unknown attributes"
                    f" {sorted(extra)}"
                )
            checked.append(row)
        object.__setattr__(self, "rows", frozenset(checked))

    # ------------------------------------------------------------------
    @property
    def labels(self) -> tuple[str, ...]:
        return self.schema.labels

    def attribute_type(self, label: str) -> TypeDescriptor:
        try:
            return self.schema.field(label).type
        except KeyError:
            raise AlgebraError(
                f"relation {self.name!r} has no attribute {label!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TupleValue]:
        return iter(self.rows)

    def __contains__(self, row: TupleValue) -> bool:
        return row in self.rows

    def with_rows(self, rows: Iterable) -> "Relation":
        return Relation(self.name, self.schema, rows)

    def renamed(self, name: str) -> "Relation":
        return Relation(name, self.schema, self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self.rows)} rows,"\
               f" {self.schema!r})"

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, name: str, fields: list[tuple[str, TypeDescriptor]],
              rows: Iterable[dict] = ()) -> "Relation":
        """Convenience constructor from plain Python data."""
        schema = TupleType(tuple(TupleField(l, t) for l, t in fields))
        return cls(name, schema, (TupleValue(r) for r in rows))

"""Complex values: tuples, sets, multisets, sequences.

All values are immutable and hashable so they can be members of sets and
keys in fact stores.  Elementary values are plain Python ``int``, ``str``,
``float``, ``bool``; class references are :class:`~repro.values.oids.Oid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from repro.values.oids import Oid

#: The union of every legal LOGRES value shape.
Value = Union[
    int, str, float, bool, Oid,
    "TupleValue", "SetValue", "MultisetValue", "SequenceValue",
]


#: one shared ``(label, value)`` pair per distinct string field.  The
#: facts of a predicate repeat a few labels over values that recur in
#: many facts (a user in each of its grants), and each pair is a tuple
#: of its own: sharing them cuts the memory a served rbac database
#: gains per write by about a fifth.
#: Only ``str`` values are shared: ``1 == True == 1.0`` would let a
#: shared pair change a field's type.  Process-wide on purpose, like
#: ``sys.intern``: a shared pair equals the one it replaces, so no
#: result depends on the table, and racing constructors at worst keep
#: two copies of a pair.  Emptied when full, which only ends sharing
#: for the pairs already handed out.  The general constructor shares
#: every string pair; the compiled kernel's two-field head builder, which
#: builds an extended instance's derived facts, shares through
#: :func:`shared_pair`.
_PAIRS: dict[tuple[str, str], tuple[str, str]] = {}
_PAIRS_LIMIT = 1 << 16


def shared_pair(pair: tuple[str, str]) -> tuple[str, str]:
    """The table's pair equal to ``pair``, a ``(label, str)`` pair."""
    pairs = _PAIRS
    shared = pairs.get(pair)
    if shared is None:
        if len(pairs) >= _PAIRS_LIMIT:
            pairs.clear()
        pairs[pair] = shared = pair
    return shared


def _shared_pairs(items: list[tuple[str, Value]]) -> tuple:
    # shared_pair inlined: every general construction runs this loop
    pairs = _PAIRS
    out = []
    for pair in items:
        if type(pair[1]) is str:
            shared = pairs.get(pair)
            if shared is None:
                if len(pairs) >= _PAIRS_LIMIT:
                    pairs.clear()
                pairs[pair] = shared = pair
            pair = shared
        out.append(pair)
    return tuple(out)


@dataclass(frozen=True, slots=True, init=False)
class TupleValue:
    """An immutable labeled record ``(L1: v1, ..., Lk: vk)``.

    Labels are stored sorted so equality and hashing are independent of
    construction order.
    """

    items: tuple[tuple[str, Value], ...]
    # lazily computed caches (excluded from equality and repr): the
    # largest nested oid number (-1 = unscanned) and the hash (None =
    # unscanned; fact-set membership tests hash the same immutable
    # tuple many times per fixpoint round)
    _max_oid: int = field(default=-1, compare=False, repr=False)
    _hash: int | None = field(default=None, compare=False, repr=False)

    # positional-only parameters so that "self" remains usable as a
    # keyword label (class tuple bindings carry a reserved self field)
    def __init__(__tv, mapping: Mapping[str, Value] | Iterable = (), /,
                 **kw):
        pairs = dict(mapping)
        pairs.update(kw)
        object.__setattr__(
            __tv, "items", _shared_pairs(sorted(pairs.items()))
        )
        object.__setattr__(__tv, "_max_oid", -1)
        object.__setattr__(__tv, "_hash", None)

    @classmethod
    def from_sorted_items(cls, items: tuple) -> "TupleValue":
        """Construct directly from an already label-sorted items tuple.

        The hot compiled-rule path builds thousands of head tuples per
        round; the sort order is decided once at compile time, so the
        general constructor's dict + sort per tuple is skipped here.
        """
        tv = object.__new__(cls)
        object.__setattr__(tv, "items", items)
        object.__setattr__(tv, "_max_oid", -1)
        object.__setattr__(tv, "_hash", None)
        return tv

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.items)
            object.__setattr__(self, "_hash", h)
        return h

    def max_oid_number(self) -> int:
        """The largest oid number nested anywhere in this tuple, 0 when
        none.  Cached on first call — the value is immutable — so fact
        stores can track their oid high-water mark without rescanning a
        tuple every time it is added to another set."""
        cached = self._max_oid
        if cached < 0:
            cached = max(
                (max_oid_in(v) for _, v in self.items), default=0
            )
            object.__setattr__(self, "_max_oid", cached)
        return cached

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, label: str) -> Value:
        for k, v in self.items:
            if k == label:
                return v
        raise KeyError(label)

    def get(self, label: str, default: Value | None = None) -> Value | None:
        for k, v in self.items:
            if k == label:
                return v
        return default

    def __contains__(self, label: str) -> bool:
        return any(k == label for k, _ in self.items)

    def __iter__(self) -> Iterator[str]:
        return (k for k, _ in self.items)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)

    def as_dict(self) -> dict[str, Value]:
        return dict(self.items)

    # -- functional updates ------------------------------------------------
    def project(self, labels: Iterable[str]) -> "TupleValue":
        wanted = set(labels)
        return TupleValue({k: v for k, v in self.items if k in wanted})

    def with_field(self, label: str, value: Value) -> "TupleValue":
        d = self.as_dict()
        d[label] = value
        return TupleValue(d)

    def without(self, *labels: str) -> "TupleValue":
        dropped = set(labels)
        return TupleValue({k: v for k, v in self.items if k not in dropped})

    def merged(self, other: "TupleValue") -> "TupleValue":
        d = self.as_dict()
        d.update(other.as_dict())
        return TupleValue(d)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {value_repr(v)}" for k, v in self.items)
        return f"({inner})"


@dataclass(frozen=True, slots=True, init=False)
class SetValue:
    """An immutable finite set value ``{v1, ..., vn}``."""

    elements: frozenset

    def __init__(self, elements: Iterable = ()):
        object.__setattr__(self, "elements", frozenset(elements))

    def __contains__(self, value: Value) -> bool:
        return value in self.elements

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def union(self, other: "SetValue") -> "SetValue":
        return SetValue(self.elements | other.elements)

    def intersection(self, other: "SetValue") -> "SetValue":
        return SetValue(self.elements & other.elements)

    def difference(self, other: "SetValue") -> "SetValue":
        return SetValue(self.elements - other.elements)

    def with_element(self, value: Value) -> "SetValue":
        return SetValue(self.elements | {value})

    def __repr__(self) -> str:
        inner = ", ".join(sorted(value_repr(v) for v in self.elements))
        return f"{{{inner}}}"


@dataclass(frozen=True, slots=True, init=False)
class MultisetValue:
    """An immutable multiset value ``[v1, ..., vn]`` (set with duplicates).

    Stored as frozen (element, multiplicity) pairs.
    """

    counts: frozenset  # of (Value, int) pairs

    def __init__(self, elements: Iterable = ()):
        tally: dict[Value, int] = {}
        for v in elements:
            tally[v] = tally.get(v, 0) + 1
        object.__setattr__(self, "counts", frozenset(tally.items()))

    @classmethod
    def from_counts(cls, counts: Mapping[Value, int]) -> "MultisetValue":
        out = cls()
        object.__setattr__(
            out, "counts",
            frozenset((v, n) for v, n in counts.items() if n > 0),
        )
        return out

    def multiplicity(self, value: Value) -> int:
        for v, n in self.counts:
            if v == value:
                return n
        return 0

    def __contains__(self, value: Value) -> bool:
        return self.multiplicity(value) > 0

    def __iter__(self) -> Iterator[Value]:
        for v, n in self.counts:
            for _ in range(n):
                yield v

    def __len__(self) -> int:
        return sum(n for _, n in self.counts)

    @property
    def support(self) -> frozenset:
        """The distinct elements (duplicates removed)."""
        return frozenset(v for v, _ in self.counts)

    def union(self, other: "MultisetValue") -> "MultisetValue":
        tally = {v: n for v, n in self.counts}
        for v, n in other.counts:
            tally[v] = tally.get(v, 0) + n
        return MultisetValue.from_counts(tally)

    def __repr__(self) -> str:
        inner = ", ".join(sorted(value_repr(v) for v in self))
        return f"[{inner}]"


@dataclass(frozen=True, slots=True, init=False)
class SequenceValue:
    """An immutable ordered sequence value ``<v1, ..., vn>``."""

    elements: tuple

    def __init__(self, elements: Iterable = ()):
        object.__setattr__(self, "elements", tuple(elements))

    def __contains__(self, value: Value) -> bool:
        return value in self.elements

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index: int) -> Value:
        return self.elements[index]

    def appended(self, value: Value) -> "SequenceValue":
        return SequenceValue(self.elements + (value,))

    def concat(self, other: "SequenceValue") -> "SequenceValue":
        return SequenceValue(self.elements + other.elements)

    def __repr__(self) -> str:
        inner = ", ".join(value_repr(v) for v in self.elements)
        return f"<{inner}>"


def max_oid_in(value: Value) -> int:
    """The largest oid number nested anywhere in ``value``, 0 when none.

    Tuple values cache the answer (see ``TupleValue.max_oid_number``), so
    repeated scans of the same immutable value — e.g. a fact flowing
    through several fact sets during fixpoint iteration — are O(1).
    """
    if isinstance(value, Oid):
        return value.number
    if isinstance(value, TupleValue):
        return value.max_oid_number()
    if hasattr(value, "__iter__") and not isinstance(value, str):
        return max((max_oid_in(v) for v in value), default=0)
    return 0


def value_repr(value: Value) -> str:
    """Readable rendering of any value (strings quoted)."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)

"""Fact sets: the working representation of the Appendix B semantics.

A fact set ``F`` holds, for every association predicate, a set of tuple
values, and for every class predicate, a map from oid to attribute tuple
(the per-class restriction of the o-value assignment ``ν``).  Each ``Fⁱ``
of the inflationary sequence is a fact set; the operators ``⊕`` (right-
biased composition), difference and intersection implement the one-step
operator's ``VAR'`` formula.

Per-predicate hash indexes on (label, value) accelerate the engine's
literal matching; indexes are built lazily and then maintained
*incrementally*: ``add`` / ``discard`` / ``discard_oid`` update the
existing ``(label → value → facts)`` entries in place, and ``copy()``
carries the built indexes over, so a mutation costs O(Δ) index work
instead of forcing an O(|F|) rebuild on the next lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.values.complex import TupleValue, Value, max_oid_in
from repro.values.instance import Instance
from repro.values.oids import Oid

_SELF = "self"  # reserved pseudo-label used by indexes for class oids
_NO_VALUE = object()  # hashable key guaranteed to match no stored value


@dataclass(frozen=True, slots=True)
class Fact:
    """One ground fact: ``pred(value)`` or ``pred(self oid, value)``."""

    pred: str
    value: TupleValue
    oid: Oid | None = None

    @property
    def is_class_fact(self) -> bool:
        return self.oid is not None

    def __repr__(self) -> str:
        return _render_fact(self.pred, self.value, self.oid)


def _render_fact(pred: str, value: TupleValue, oid: Oid | None = None) -> str:
    """A fact's ``repr``: ``pred(l: v, ...)`` or ``pred(self &n, ...)``."""
    inner = ", ".join([f"{k}: {v!r}" for k, v in value.items])
    if oid is None:
        return f"{pred}({inner})"
    sep = ", " if inner else ""
    return f"{pred}(self {oid!r}{sep}{inner})"


class FactSet:
    """A mutable set of ground facts over class and association predicates."""

    __slots__ = ("_assoc", "_class", "_indexes", "_max_oid",
                 "_journal", "index_stats")

    def __init__(self) -> None:
        self._assoc: dict[str, set[TupleValue]] = {}
        self._class: dict[str, dict[Oid, TupleValue]] = {}
        self._indexes: dict[str, dict[str, dict[Value, list[Fact]]]] = {}
        self._max_oid = 0  # monotone upper bound, maintained on add
        # undo journal: None = off; a list of inverse ops while a
        # savepoint (repro.modules.txn) is active
        self._journal: list[tuple] | None = None
        # optional observability hook (duck-typed IndexStats with
        # ``hits`` / ``misses`` / ``builds``); None = no accounting
        self.index_stats = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "FactSet":
        fs = cls()
        for f in facts:
            fs.add(f)
        return fs

    def copy(self) -> "FactSet":
        """An independent copy carrying the built indexes.

        Readers sharing a set publish lazy indexes into ``_indexes`` and
        its per-predicate dicts while a copy may be iterating them, so
        every index level is snapshotted with ``tuple(d.items())``
        first (one C-level call, atomic under the GIL)."""
        out = FactSet()
        out._assoc = {p: set(ts) for p, ts in self._assoc.items()}
        out._class = {p: dict(m) for p, m in self._class.items()}
        out._indexes = {
            pred: {
                label: {
                    key: list(bucket)
                    for key, bucket in tuple(by_label.items())
                }
                for label, by_label in tuple(index.items())
            }
            for pred, index in tuple(self._indexes.items())
        }
        out._max_oid = self._max_oid
        out.index_stats = self.index_stats
        return out

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, fact: Fact) -> bool:
        """Insert ``fact``; returns True iff the set changed.

        For class facts, an existing entry for the same oid is
        *overwritten* (composition bias; Appendix B resolves o-value
        conflicts in favour of the newer fact).
        """
        pred = fact.pred
        index = self._indexes.get(pred)
        journal = self._journal
        if fact.oid is not None:
            table = self._class.setdefault(pred, {})
            old = table.get(fact.oid)
            if old == fact.value:
                return False
            table[fact.oid] = fact.value
            if journal is not None:
                if old is None:
                    journal.append(("del_class", pred, fact.oid))
                else:
                    journal.append(("set_class", pred, fact.oid, old))
            if fact.oid.number > self._max_oid:
                self._max_oid = fact.oid.number
            if index is not None:
                if old is not None:
                    _index_remove(index, Fact(pred, old, fact.oid))
                _index_add(index, fact)
        else:
            table = self._assoc.setdefault(pred, set())
            if fact.value in table:
                return False
            table.add(fact.value)
            if journal is not None:
                journal.append(("del_assoc", pred, fact.value))
            if index is not None:
                _index_add(index, fact)
        nested = max_oid_in(fact.value)
        if nested > self._max_oid:
            self._max_oid = nested
        return True

    def add_association(self, pred: str, value: TupleValue) -> bool:
        return self.add(Fact(pred.lower(), value))

    def add_object(self, pred: str, oid: Oid, value: TupleValue) -> bool:
        return self.add(Fact(pred.lower(), value, oid))

    def discard(self, fact: Fact) -> bool:
        """Remove ``fact`` if present; returns True iff the set changed.

        A class fact is removed when the oid is present and its stored
        value equals the fact's value.
        """
        pred = fact.pred
        if fact.oid is not None:
            table = self._class.get(pred)
            if table is None or table.get(fact.oid) != fact.value:
                return False
            del table[fact.oid]
            if self._journal is not None:
                self._journal.append(
                    ("set_class", pred, fact.oid, fact.value)
                )
        else:
            table = self._assoc.get(pred)
            if table is None or fact.value not in table:
                return False
            table.remove(fact.value)
            if self._journal is not None:
                self._journal.append(("add_assoc", pred, fact.value))
        index = self._indexes.get(pred)
        if index is not None:
            _index_remove(index, fact)
        return True

    def discard_oid(self, pred: str, oid: Oid) -> bool:
        """Remove the object ``oid`` from class ``pred`` regardless of value."""
        pred = pred.lower()
        table = self._class.get(pred)
        if table is None or oid not in table:
            return False
        stored = table.pop(oid)
        if self._journal is not None:
            self._journal.append(("set_class", pred, oid, stored))
        index = self._indexes.get(pred)
        if index is not None:
            _index_remove(index, Fact(pred, stored, oid))
        return True

    # ------------------------------------------------------------------
    # undo journal (savepoint support; :mod:`repro.modules.txn`)
    # ------------------------------------------------------------------
    def begin_journal(self) -> tuple[int, int]:
        """Start (or nest into) undo journaling; returns an opaque mark.

        While a journal is active every ``add`` / ``discard`` /
        ``discard_oid`` that changes the set records its inverse, so
        :meth:`rollback_to` can restore the state at the mark exactly —
        including the hash indexes, which are maintained incrementally
        by the replayed inverse operations."""
        if self._journal is None:
            self._journal = []
        return (len(self._journal), self._max_oid)

    def rollback_to(self, mark: tuple[int, int]) -> int:
        """Undo every journaled mutation after ``mark``; returns how
        many operations were reverted.  Journaling stays active for the
        enclosing savepoint (if the mark is nested)."""
        journal = self._journal
        if journal is None:
            raise StorageError("rollback_to without an active journal")
        position, max_oid = mark
        entries = journal[position:]
        del journal[position:]
        self._journal = None  # suspend journaling while replaying undo
        try:
            for op in reversed(entries):
                kind = op[0]
                if kind == "set_class":
                    self.add(Fact(op[1], op[3], op[2]))
                elif kind == "del_class":
                    self.discard_oid(op[1], op[2])
                elif kind == "add_assoc":
                    self.add(Fact(op[1], op[2]))
                else:  # del_assoc
                    self.discard(Fact(op[1], op[2]))
        finally:
            self._journal = journal
        self._max_oid = max_oid
        return len(entries)

    def end_journal(self) -> None:
        """Stop journaling and drop the recorded inverses (commit)."""
        self._journal = None

    @property
    def journaling(self) -> bool:
        return self._journal is not None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        if fact.oid is not None:
            return self._class.get(fact.pred, {}).get(fact.oid) == fact.value
        return fact.value in self._assoc.get(fact.pred, set())

    def has_oid(self, pred: str, oid: Oid) -> bool:
        return oid in self._class.get(pred.lower(), {})

    def value_of(self, pred: str, oid: Oid) -> TupleValue | None:
        return self._class.get(pred.lower(), {}).get(oid)

    def facts_of(self, pred: str) -> Iterator[Fact]:
        pred = pred.lower()
        table = self._class.get(pred)
        if table is not None:
            for oid, value in table.items():
                yield Fact(pred, value, oid)
        for value in self._assoc.get(pred, ()):
            yield Fact(pred, value)

    def reprs_of(self, pred: str) -> list[str]:
        """The ``repr`` of every fact of ``pred``, built without the
        :class:`Fact` objects (the batch CLI renders whole instances)."""
        pred = pred.lower()
        table = self._class.get(pred, {})
        return [_render_fact(pred, value, oid)
                for oid, value in table.items()] + [
            _render_fact(pred, value) for value in self._assoc.get(pred, ())
        ]

    def facts(self) -> Iterator[Fact]:
        for pred in list(self._class) + list(self._assoc):
            yield from self.facts_of(pred)

    def predicates(self) -> list[str]:
        return sorted(set(self._class) | set(self._assoc))

    def count(self, pred: str | None = None) -> int:
        if pred is not None:
            pred = pred.lower()
            return len(self._class.get(pred, {})) + len(
                self._assoc.get(pred, ())
            )
        return sum(len(m) for m in self._class.values()) + sum(
            len(s) for s in self._assoc.values()
        )

    def is_class_pred(self, pred: str) -> bool:
        return pred.lower() in self._class

    def oids_of(self, pred: str) -> set[Oid]:
        return set(self._class.get(pred.lower(), {}))

    def lookup(self, pred: str, label: str, value: Value) -> list[Fact]:
        """Facts of ``pred`` whose ``label`` component equals ``value``.

        Served from a lazily built hash index; ``label`` may be the
        pseudo-label ``self`` to look up class facts by oid.  A set no
        longer mutated may be probed from several threads at once: an
        index is built privately and published with ``setdefault``, so
        racing builders all end up reading the one published copy.
        """
        pred = pred.lower()
        stats = self.index_stats
        index = self._indexes.get(pred)
        if index is None:
            index = self._build_index(pred)
        by_label = index.get(label)
        if by_label is None:
            if stats is not None:
                stats.misses += 1
                stats.builds += 1
            by_label = {}
            for fact in self.facts_of(pred):
                key = fact.oid if label == _SELF else fact.value.get(label)
                if key is not None:
                    by_label.setdefault(key, []).append(fact)
            by_label = index.setdefault(label, by_label)
        elif stats is not None:
            stats.hits += 1
        return by_label.get(value, [])

    def _build_index(self, pred: str) -> dict[str, dict[Value, list[Fact]]]:
        return self._indexes.setdefault(pred, {})

    def distinct_count(self, pred: str, label: str) -> int:
        """Distinct values stored at an indexed position — the planner's
        selectivity statistic.  Forces the same lazy per-label index
        evaluation uses, so the count is free once a join probed it."""
        pred = pred.lower()
        index = self._indexes.get(pred)
        by_label = index.get(label) if index is not None else None
        if by_label is None:
            # build (and cache) the index through the normal path; the
            # sentinel value never matches, so this is only the build
            self.lookup(pred, label, _NO_VALUE)
            by_label = self._indexes[pred][label]
        return len(by_label)

    # ------------------------------------------------------------------
    # Appendix B set algebra
    # ------------------------------------------------------------------
    def compose(self, other: "FactSet") -> "FactSet":
        """``self ⊕ other``: union, with ``other`` winning o-value conflicts.

        Ground facts of ``self`` that carry the same oid but a different
        o-value than some fact of ``other`` are dropped; ``⊕`` is
        non-commutative (Appendix B).
        """
        out = self.copy()
        for fact in other.facts():
            out.add(fact)
        return out

    def minus(self, other: "FactSet") -> "FactSet":
        """Facts of ``self`` not present in ``other`` (exact match), in
        ``self``'s order.  Each predicate's table is filtered against
        ``other``'s in one C-level pass; only the facts kept become
        :class:`Fact` objects."""
        out = FactSet()
        for pred, table in self._class.items():
            theirs = other._class.get(pred, {}).items()
            for oid, value in filterfalse(theirs.__contains__,
                                          table.items()):
                out.add(Fact(pred, value, oid))
        for pred, values in self._assoc.items():
            theirs = other._assoc.get(pred, set())
            for value in filterfalse(theirs.__contains__, values):
                out.add(Fact(pred, value))
        return out

    def issubset(self, other: "FactSet") -> bool:
        """Whether every fact of ``self`` is in ``other`` (class facts
        with the same o-value)."""
        return all(
            values <= other._assoc.get(pred, set())
            for pred, values in self._assoc.items()
        ) and all(
            table.items() <= other._class.get(pred, {}).items()
            for pred, table in self._class.items()
        )

    def intersection(self, other: "FactSet") -> "FactSet":
        out = FactSet()
        for fact in self.facts():
            if fact in other:
                out.add(fact)
        return out

    def union_inflationary(self, other: "FactSet") -> "FactSet":
        """Plain union keeping *existing* o-values on conflict (left bias)."""
        out = other.copy()
        for fact in self.facts():
            out.add(fact)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactSet):
            return NotImplemented
        return self._normalized() == other._normalized()

    # Mutable container: explicitly unhashable (``hash()`` raises
    # ``TypeError: unhashable type`` instead of reaching a live method,
    # and ``isinstance(fs, collections.abc.Hashable)`` is now False).
    __hash__ = None

    def _normalized(self):
        return (
            {p: s for p, s in self._assoc.items() if s},
            {p: m for p, m in self._class.items() if m},
        )

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    def to_instance(self) -> Instance:
        """Materialize as an :class:`Instance` ``(π, ν, ρ)``.

        When an oid appears in several classes of a hierarchy, its o-value
        is the merge of all class-level tuples, with wider (more specific)
        tuples taking precedence label-wise.
        """
        pi: dict[str, set[Oid]] = {}
        nu: dict[Oid, TupleValue] = {}
        for pred, table in self._class.items():
            pi[pred] = set(table)
            for oid, value in table.items():
                prev = nu.get(oid)
                if prev is None:
                    nu[oid] = value
                elif len(value.items) >= len(prev.items):
                    nu[oid] = prev.merged(value)
                else:
                    nu[oid] = value.merged(prev)
        rho = {p: set(ts) for p, ts in self._assoc.items()}
        return Instance(pi=pi, nu=nu, rho=rho)

    def max_oid_number(self) -> int:
        """A monotone upper bound on oid numbers ever stored (kept on
        add; deletions do not lower it, which is exactly what fresh-oid
        reservation needs)."""
        return self._max_oid

    def __repr__(self) -> str:
        return f"FactSet({self.count()} facts, {len(self.predicates())} predicates)"


def _index_key(fact: Fact, label: str) -> Value | None:
    return fact.oid if label == _SELF else fact.value.get(label)


def _index_add(index: dict[str, dict[Value, list[Fact]]], fact: Fact) -> None:
    for label, by_label in index.items():
        key = _index_key(fact, label)
        if key is not None:
            by_label.setdefault(key, []).append(fact)


def _index_remove(
    index: dict[str, dict[Value, list[Fact]]], fact: Fact
) -> None:
    for label, by_label in index.items():
        key = _index_key(fact, label)
        if key is None:
            continue
        bucket = by_label.get(key)
        if bucket is None:
            continue
        try:
            bucket.remove(fact)
        except ValueError:
            continue
        if not bucket:
            del by_label[key]


def require_factset(obj) -> FactSet:
    """Defensive coercion helper used by public APIs."""
    if not isinstance(obj, FactSet):
        raise StorageError(f"expected a FactSet, got {type(obj).__name__}")
    return obj

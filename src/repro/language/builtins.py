"""Built-in predicates (Section 3.1).

LOGRES provides a comprehensive list of built-ins over complex terms —
``member``, ``union``, ``append``, ``count``, etc. — plus equality,
arithmetic and comparisons.  Built-ins add no expressive power (each could
be simulated with rules) but improve readability; they are *untyped*, so
every variable occurring in one must also occur in an ordinary literal of
the same rule (checked by the safety analysis).

Each built-in is a :class:`Builtin` with a ``solve`` method that receives
the partially evaluated argument list — concrete values for bound
positions, :class:`~repro.language.ast.Var` for unbound ones — and yields
binding dictionaries for the unbound variables.  This gives every built-in
its natural set of modes: ``member(X, S)`` enumerates when ``X`` is free
and checks when bound; ``union(X, Y, Z)`` computes the last argument from
the first two (the conventional *result-last* position) or verifies all
three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import BuiltinError
from repro.language.ast import BuiltinLiteral, Term, Var
from repro.values.complex import (
    MultisetValue,
    SequenceValue,
    SetValue,
    Value,
)

Bindings = dict[Var, Value]
Resolved = Value | Var  # a bound value, or the still-unbound variable


def _is_unbound(x: Resolved) -> bool:
    return isinstance(x, Var)


def _require_bound(name: str, args: Iterable[Resolved]) -> None:
    for a in args:
        if _is_unbound(a):
            raise BuiltinError(
                f"builtin {name!r} requires {a!r} to be bound"
            )


def _collection_elements(name: str, value: Value):
    if isinstance(value, (SetValue, MultisetValue, SequenceValue)):
        return list(value)
    raise BuiltinError(
        f"builtin {name!r} expects a set, multiset or sequence,"
        f" got {value!r}"
    )


@dataclass(frozen=True)
class Builtin:
    """A built-in predicate: name, arity, and solver."""

    name: str
    arity: int
    solver: Callable[..., Iterator[Bindings]]
    doc: str = ""

    def solve(self, args: list[Resolved]) -> Iterator[Bindings]:
        if len(args) != self.arity:
            raise BuiltinError(
                f"builtin {self.name!r} takes {self.arity} arguments,"
                f" got {len(args)}"
            )
        return self.solver(*args)


def _unify_result(result: Value, target: Resolved) -> Iterator[Bindings]:
    """Yield the binding (or check) placing ``result`` at ``target``."""
    if _is_unbound(target):
        yield {target: result}
    elif target == result:
        yield {}


# ---------------------------------------------------------------------------
# equality and comparisons
# ---------------------------------------------------------------------------
def _eq(left: Resolved, right: Resolved) -> Iterator[Bindings]:
    if _is_unbound(left) and _is_unbound(right):
        raise BuiltinError("'=' needs at least one bound side")
    if _is_unbound(left):
        yield {left: right}
    elif _is_unbound(right):
        yield {right: left}
    elif left == right:
        yield {}


def _neq(left: Resolved, right: Resolved) -> Iterator[Bindings]:
    _require_bound("!=", (left, right))
    if left != right:
        yield {}


def _comparison(op: Callable[[Value, Value], bool], symbol: str):
    def solver(left: Resolved, right: Resolved) -> Iterator[Bindings]:
        _require_bound(symbol, (left, right))
        try:
            holds = op(left, right)
        except TypeError as exc:
            raise BuiltinError(
                f"incomparable values for {symbol!r}: {left!r}, {right!r}"
            ) from exc
        if holds:
            yield {}

    return solver


# ---------------------------------------------------------------------------
# collections
# ---------------------------------------------------------------------------
def _member(element: Resolved, collection: Resolved) -> Iterator[Bindings]:
    _require_bound("member", (collection,))
    values = _collection_elements("member", collection)
    if _is_unbound(element):
        seen = set()
        for val in values:
            if val not in seen:
                seen.add(val)
                yield {element: val}
    elif element in values:
        yield {}


def _union(left: Resolved, right: Resolved, result: Resolved
           ) -> Iterator[Bindings]:
    _require_bound("union", (left, right))
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        yield from _unify_result(left.union(right), result)
    elif isinstance(left, MultisetValue) and isinstance(right, MultisetValue):
        yield from _unify_result(left.union(right), result)
    elif isinstance(left, SequenceValue) and isinstance(right, SequenceValue):
        yield from _unify_result(left.concat(right), result)
    else:
        raise BuiltinError(
            f"union expects two collections of the same kind:"
            f" {left!r}, {right!r}"
        )


def _intersection(left: Resolved, right: Resolved, result: Resolved
                  ) -> Iterator[Bindings]:
    _require_bound("intersection", (left, right))
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        yield from _unify_result(left.intersection(right), result)
    else:
        raise BuiltinError("intersection expects two sets")


def _difference(left: Resolved, right: Resolved, result: Resolved
                ) -> Iterator[Bindings]:
    _require_bound("difference", (left, right))
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        yield from _unify_result(left.difference(right), result)
    else:
        raise BuiltinError("difference expects two sets")


def _append(collection: Resolved, element: Resolved, result: Resolved
            ) -> Iterator[Bindings]:
    _require_bound("append", (collection, element))
    if isinstance(collection, SetValue):
        yield from _unify_result(collection.with_element(element), result)
    elif isinstance(collection, SequenceValue):
        yield from _unify_result(collection.appended(element), result)
    elif isinstance(collection, MultisetValue):
        yield from _unify_result(
            collection.union(MultisetValue([element])), result
        )
    else:
        raise BuiltinError(
            f"append expects a collection first, got {collection!r}"
        )


def _count(collection: Resolved, result: Resolved) -> Iterator[Bindings]:
    _require_bound("count", (collection,))
    yield from _unify_result(
        len(_collection_elements("count", collection)), result
    )


def _sum(collection: Resolved, result: Resolved) -> Iterator[Bindings]:
    _require_bound("sum", (collection,))
    values = _collection_elements("sum", collection)
    total = 0
    for val in values:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise BuiltinError(f"sum over non-numeric element {val!r}")
        total += val
    yield from _unify_result(total, result)


def _extreme(fn, name):
    def solver(collection: Resolved, result: Resolved) -> Iterator[Bindings]:
        _require_bound(name, (collection,))
        values = _collection_elements(name, collection)
        if not values:
            return
        yield from _unify_result(fn(values), result)

    return solver


def _length(sequence: Resolved, result: Resolved) -> Iterator[Bindings]:
    _require_bound("length", (sequence,))
    if not isinstance(sequence, SequenceValue):
        raise BuiltinError(f"length expects a sequence, got {sequence!r}")
    yield from _unify_result(len(sequence), result)


def _nth(sequence: Resolved, index: Resolved, result: Resolved
         ) -> Iterator[Bindings]:
    _require_bound("nth", (sequence, index))
    if not isinstance(sequence, SequenceValue):
        raise BuiltinError(f"nth expects a sequence, got {sequence!r}")
    if not isinstance(index, int) or isinstance(index, bool):
        raise BuiltinError(f"nth expects an integer index, got {index!r}")
    if 1 <= index <= len(sequence):  # 1-based, database style
        yield from _unify_result(sequence[index - 1], result)


def _first(sequence: Resolved, result: Resolved) -> Iterator[Bindings]:
    _require_bound("first", (sequence,))
    if not isinstance(sequence, SequenceValue):
        raise BuiltinError(f"first expects a sequence, got {sequence!r}")
    if len(sequence):
        yield from _unify_result(sequence[0], result)


def _last(sequence: Resolved, result: Resolved) -> Iterator[Bindings]:
    _require_bound("last", (sequence,))
    if not isinstance(sequence, SequenceValue):
        raise BuiltinError(f"last expects a sequence, got {sequence!r}")
    if len(sequence):
        yield from _unify_result(sequence[len(sequence) - 1], result)


def _reverse(sequence: Resolved, result: Resolved) -> Iterator[Bindings]:
    _require_bound("reverse", (sequence,))
    if not isinstance(sequence, SequenceValue):
        raise BuiltinError(
            f"reverse expects a sequence, got {sequence!r}"
        )
    yield from _unify_result(
        SequenceValue(reversed(sequence.elements)), result
    )


def _subset(left: Resolved, right: Resolved) -> Iterator[Bindings]:
    _require_bound("subset", (left, right))
    if isinstance(left, SetValue) and isinstance(right, SetValue):
        if left.elements <= right.elements:
            yield {}
    else:
        raise BuiltinError("subset expects two sets")


# ---------------------------------------------------------------------------
# numeric predicates
# ---------------------------------------------------------------------------
def _numeric_check(fn, name):
    def solver(value: Resolved) -> Iterator[Bindings]:
        _require_bound(name, (value,))
        if not isinstance(value, int) or isinstance(value, bool):
            raise BuiltinError(f"{name} expects an integer, got {value!r}")
        if fn(value):
            yield {}

    return solver


def _mod(left: Resolved, right: Resolved, result: Resolved
         ) -> Iterator[Bindings]:
    _require_bound("mod", (left, right))
    if right == 0:
        raise BuiltinError("mod by zero")
    yield from _unify_result(left % right, result)


BUILTINS: dict[str, Builtin] = {}


def _register(name: str, arity: int, solver, doc: str) -> None:
    BUILTINS[name] = Builtin(name, arity, solver, doc)


_register("=", 2, _eq, "unification / assignment")
_register("!=", 2, _neq, "disequality (both sides bound)")
_register("<", 2, _comparison(lambda a, b: a < b, "<"), "less than")
_register("<=", 2, _comparison(lambda a, b: a <= b, "<="), "at most")
_register(">", 2, _comparison(lambda a, b: a > b, ">"), "greater than")
_register(">=", 2, _comparison(lambda a, b: a >= b, ">="), "at least")
_register("member", 2, _member, "element of a collection (enumerating)")
_register("union", 3, _union, "union(X, Y, Z): Z = X ∪ Y")
_register("intersection", 3, _intersection,
          "intersection(X, Y, Z): Z = X ∩ Y")
_register("difference", 3, _difference, "difference(X, Y, Z): Z = X − Y")
_register("append", 3, _append, "append(C, E, R): R = C with E added")
_register("count", 2, _count, "count(C, N): N = |C|")
_register("sum", 2, _sum, "sum(C, N): N = Σ C (numeric)")
_register("min", 2, _extreme(min, "min"), "min(C, M)")
_register("max", 2, _extreme(max, "max"), "max(C, M)")
_register("length", 2, _length, "length(Seq, N)")
_register("nth", 3, _nth, "nth(Seq, I, X): 1-based element access")
_register("first", 2, _first, "first(Seq, X): head element")
_register("last", 2, _last, "last(Seq, X): final element")
_register("reverse", 2, _reverse, "reverse(Seq, R): reversed sequence")
_register("subset", 2, _subset, "subset(X, Y): X ⊆ Y")
_register("even", 1, _numeric_check(lambda n: n % 2 == 0, "even"), "even(N)")
_register("odd", 1, _numeric_check(lambda n: n % 2 == 1, "odd"), "odd(N)")
_register("mod", 3, _mod, "mod(X, Y, Z): Z = X mod Y")

#: Comparison built-ins never bind variables and thus never make a rule safe.
NON_BINDING = {"=", "!=", "<", "<=", ">", ">=", "even", "odd", "subset"}

#: Built-ins whose *last* argument is a result position that can bind.
RESULT_LAST = {
    "union", "intersection", "difference", "append", "count", "sum",
    "min", "max", "length", "nth", "mod", "first", "last", "reverse",
}


def builtin_ready(
    blit: BuiltinLiteral, resolvable: Callable[[Term], bool]
) -> bool:
    """The mode rule: can ``blit`` run once the arguments passing
    ``resolvable`` are inputs?  ``=`` needs one side resolvable and the
    other resolvable or a variable, ``member`` its collection, a
    result-last built-in its inputs; a negated or any other built-in
    needs every argument."""
    def var_or_resolvable(t: Term) -> bool:
        return isinstance(t, Var) or resolvable(t)

    name = blit.name
    if blit.negated:
        return all(resolvable(t) for t in blit.args)
    if name == "=" and len(blit.args) == 2:
        left, right = blit.args
        return (resolvable(left) and var_or_resolvable(right)) or (
            resolvable(right) and var_or_resolvable(left)
        )
    if name == "member" and len(blit.args) == 2:
        element, coll = blit.args
        return resolvable(coll) and var_or_resolvable(element)
    if name in RESULT_LAST and blit.args:
        *inputs, result = blit.args
        return all(resolvable(t) for t in inputs) and var_or_resolvable(
            result
        )
    return all(resolvable(t) for t in blit.args)


def is_builtin(name: str) -> bool:
    return name.lower() in BUILTINS


def get_builtin(name: str) -> Builtin:
    try:
        return BUILTINS[name.lower()]
    except KeyError:
        raise BuiltinError(f"unknown builtin: {name!r}") from None

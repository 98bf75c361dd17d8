"""Compiled rule bodies: planned joins as specialized closures.

For the fragment that dominates real workloads — positive association
heads, labeled variable/constant body arguments, built-ins over simple
terms — the generic matcher pays for its generality on every candidate
fact: a fresh bindings dict per extension, readiness re-checks per
literal, per-label type dispatch.  :func:`compile_rule` removes that
overhead by specializing a planned rule body into a chain of closures
over a flat register file:

* variables become slots in one reusable ``regs`` list (each chain
  writes every slot it reads earlier in the same traversal, so no
  clearing or undo is needed);
* each positive literal becomes a step that enumerates candidates
  through the same access path the plan chose (oid lookup / hash-index
  bucket / scan) and runs a precompiled op list (bind slot / check
  constant / check slot) over the fact's components;
* fully-bound negations become existence checks, built-ins call the
  shared solvers with precompiled argument getters;
* the head becomes a builder producing the ground
  :class:`~repro.storage.factset.Fact` directly from the registers,
  with class-reference coercion decided at compile time from the
  schema.

Anything outside the fragment (oid invention, class heads, deletion
heads, self/tuple/positional arguments, patterns, active-domain
negation, collection terms in built-ins) returns None and keeps the
generic path for that rule alone; the other rules of its scope still
run compiled, in the same rounds.  The engine runs a compiled body from
the rule's first valuation, on the incremental kernel only: never on
the reference kernel (``incremental=False``), under instrumentation
(events must see every valuation) or with indexes disabled.

Equivalence with the generic matcher is property-tested against the
reference kernel (``tests/test_planned_kernel.py``).  One deliberate
fragment nuance: a repeated body variable checks later occurrences with
:func:`~repro.engine.valuation.values_unify` but never upgrades an
oid binding to an object tuple mid-chain (the generic ``bind`` does);
the schemas in the fragment coerce class-referencing head fields to
oids, so the derived facts are identical.
"""

from __future__ import annotations

from repro.engine.valuation import (
    SELF_LABEL,
    _arith,
    as_oid,
    values_unify,
)
from repro.errors import EvaluationError
from repro.language.ast import (
    ArithExpr,
    BuiltinLiteral,
    Constant,
    Literal,
    Var,
)
from repro.language.builtins import get_builtin
from repro.storage.factset import Fact
from repro.types.descriptors import NamedType
from repro.values.complex import TupleValue

__all__ = ["CompiledRule", "compile_rule"]

# op codes for the per-fact component op list
_BIND = 0  # write the component into a register
_CHECK_CONST = 1  # component must unify with a constant
_CHECK_SLOT = 2  # component must unify with a register

#: index-probe key that matches no stored value (forces a lazy build)
_PROBE = object()

#: runtime types whose values can never contain an oid, so the head
#: builder can stamp the tuple's max-oid cache without a scan
_OIDFREE = (str, int, float, bool)


def _pred_values(facts, pred):
    """All stored tuple values of ``pred`` (class and association),
    without materializing :class:`Fact` wrappers — the compiled scan
    only reads components."""
    ctable = facts._class.get(pred)
    atable = facts._assoc.get(pred)
    if ctable is None:
        return atable if atable is not None else ()
    if atable is None:
        return ctable.values()
    out = list(ctable.values())
    out.extend(atable)
    return out


def _index_bucket(facts, pred, label, key):
    """The (pred, label, key) index bucket, building the lazy index on
    first probe.  The compiled path never runs instrumented, so the
    index-stats accounting in :meth:`FactSet.lookup` is not needed."""
    index = facts._indexes.get(pred)
    by_label = index.get(label) if index is not None else None
    if by_label is None:
        facts.lookup(pred, label, _PROBE)
        by_label = facts._indexes[pred][label]
    return by_label.get(key)


class CompiledRule:
    """One rule specialized into closure chains.

    ``chain(regs, ctx, emit)`` enumerates all valuations of the full
    body; ``seed_chains[pos](fact, regs, ctx, emit)`` enumerates the
    valuations in which body position ``pos`` is matched by ``fact``
    (the semi-naive driver feeds delta facts through these).  ``emit``
    receives the register file with every head variable written;
    :meth:`make_delta_emit` / :meth:`make_round_emit` build the two
    sinks the engine uses.
    """

    __slots__ = ("rule_index", "head_pred", "regs", "chain",
                 "seed_chains", "seed_specs", "head_build",
                 "head_build_value")

    def __init__(self, rule_index, head_pred, nslots, chain, seed_chains,
                 seed_specs, head_build, head_build_value):
        self.rule_index = rule_index
        self.head_pred = head_pred
        self.regs = [None] * nslots
        self.chain = chain
        self.seed_chains = seed_chains
        self.seed_specs = seed_specs  # tuple[(pos, pred)]
        self.head_build = head_build
        self.head_build_value = head_build_value

    def run_full(self, ctx, emit) -> None:
        self.chain(self.regs, ctx, emit)

    def make_delta_emit(self, ctx, deltas, guard, skip_satisfied):
        """Sink mirroring :func:`repro.engine.step._derive_tuple` into a
        :class:`~repro.engine.step.StepDeltas`."""
        build = self.head_build
        facts = ctx.facts
        plus_add = deltas.plus.add
        sized = guard.max_fact_size is not None
        if not sized and skip_satisfied:
            def emit(regs):
                fact = build(regs)
                if fact not in facts:
                    plus_add(fact)
            return emit

        def emit(regs):
            fact = build(regs)
            if sized:
                guard.check_fact_size(fact.pred, fact.value)
            if skip_satisfied and fact in facts:
                return
            plus_add(fact)
        return emit

    def make_round_emit(self, facts, fresh, seen, guard):
        """Sink for the semi-naive driver: deduplicate against the live
        state and the current round, collect the survivors.

        ``seen`` maps head predicate → values emitted this round; the
        dedup probes run on the *value* (whose hash is cached) and the
        ``Fact`` wrapper is only built for survivors.  The head is an
        association by construction, so membership in the live state is
        one set probe on the predicate's table — snapshotted here, which
        is safe because the driver batches its adds at round end."""
        build_value = self.head_build_value
        append = fresh.append
        pred = self.head_pred
        table = facts._assoc.get(pred)
        seen_values = seen.setdefault(pred, set())
        seen_add = seen_values.add
        if guard.max_fact_size is None:
            if table is None:
                def emit(regs):
                    value = build_value(regs)
                    if value in seen_values:
                        return
                    seen_add(value)
                    append(Fact(pred, value))
                return emit

            def emit(regs):
                value = build_value(regs)
                if value in table or value in seen_values:
                    return
                seen_add(value)
                append(Fact(pred, value))
            return emit

        def emit(regs):
            value = build_value(regs)
            guard.check_fact_size(pred, value)
            if (table is not None and value in table) \
                    or value in seen_values:
                return
            seen_add(value)
            append(Fact(pred, value))
        return emit


# ---------------------------------------------------------------------------
# fragment checks
# ---------------------------------------------------------------------------
def _simple_args(literal: Literal) -> bool:
    args = literal.args
    if args.self_term is not None or args.tuple_var is not None or \
            args.positional:
        return False
    return all(
        isinstance(term, (Var, Constant)) for _, term in args.labeled
    )


def _simple_builtin_term(term) -> bool:
    if isinstance(term, (Var, Constant)):
        return True
    if isinstance(term, ArithExpr):
        return _simple_builtin_term(term.left) and \
            _simple_builtin_term(term.right)
    return False


def _head_compilable(rule, schema) -> bool:
    head = rule.head
    if not isinstance(head, Literal) or head.negated:
        return False
    if schema.is_class(head.pred):
        return False
    args = head.args
    if args.self_term is not None or args.tuple_var is not None or \
            args.positional:
        return False
    return all(
        isinstance(t, (Var, Constant)) or (
            isinstance(t, ArithExpr) and _simple_builtin_term(t)
        )
        for _, t in args.labeled
    )


# ---------------------------------------------------------------------------
# step constructors
# ---------------------------------------------------------------------------
def _positive_steps(literal, bound, slots):
    """(lookup, ops, bound') for one positive literal under ``bound``
    bound variables, or None when outside the fragment.

    ``lookup`` selects candidates exactly as the generic
    ``_candidate_facts`` would: the first labeled constant or
    already-bound variable keys the hash index, otherwise scan.
    """
    if not _simple_args(literal):
        return None
    lookup = None  # ("const", label, value) | ("slot", label, slot)
    ops = []
    now_bound = set(bound)
    for label, term in literal.args.labeled:
        if isinstance(term, Constant):
            if lookup is None:
                value = term.value
                if isinstance(value, TupleValue) and SELF_LABEL in value:
                    value = value[SELF_LABEL]
                lookup = ("const", label, value)
            else:
                ops.append((label, _CHECK_CONST, term.value))
        elif term in now_bound:
            if lookup is None and term in bound:
                lookup = ("slot", label, slots[term])
            else:
                ops.append((label, _CHECK_SLOT, slots[term]))
        else:
            ops.append((label, _BIND, slots[term]))
            now_bound.add(term)
    return lookup, tuple(ops), now_bound


def _positions(pred, schema, labels):
    """(declared arity, component index per label) in the sorted items
    tuple of ``pred``'s effective type, or None when the schema cannot
    say — lets the unrolled steps read ``value.items[i]`` directly
    instead of a linear ``.get`` per component."""
    try:
        decl = sorted(schema.effective_type(pred).labels)
    except Exception:
        return None
    if any(label not in decl for label in labels):
        return None
    return len(decl), tuple(decl.index(label) for label in labels)


def _make_positive(pred, lookup, ops, nxt, schema):
    pred = pred.lower()
    all_bind = all(op == _BIND for _, op, _ in ops)
    terminal = nxt is _TERMINAL
    if lookup is None:
        # full scan over the stored values (no Fact wrappers)
        if all_bind and len(ops) == 1:
            l0, _, s0 = ops[0]
            pos = _positions(pred, schema, (l0,))
            if pos is not None:
                n, (i0,) = pos
                if terminal:
                    def step(regs, ctx, emit):
                        for value in _pred_values(ctx.facts, pred):
                            items = value.items
                            if len(items) == n:
                                p = items[i0]
                                v0 = p[1] if p[0] == l0 else value.get(l0)
                            else:
                                v0 = value.get(l0)
                            if v0 is not None:
                                regs[s0] = v0
                                emit(regs)
                    return step

                def step(regs, ctx, emit):
                    for value in _pred_values(ctx.facts, pred):
                        items = value.items
                        if len(items) == n:
                            p = items[i0]
                            v0 = p[1] if p[0] == l0 else value.get(l0)
                        else:
                            v0 = value.get(l0)
                        if v0 is not None:
                            regs[s0] = v0
                            nxt(regs, ctx, emit)
                return step
        if all_bind and len(ops) == 2:
            (l0, _, s0), (l1, _, s1) = ops
            pos = _positions(pred, schema, (l0, l1))
            if pos is not None:
                n, (i0, i1) = pos
                if terminal:
                    def step(regs, ctx, emit):
                        for value in _pred_values(ctx.facts, pred):
                            items = value.items
                            if len(items) == n:
                                p = items[i0]
                                v0 = p[1] if p[0] == l0 else value.get(l0)
                                p = items[i1]
                                v1 = p[1] if p[0] == l1 else value.get(l1)
                            else:
                                v0 = value.get(l0)
                                v1 = value.get(l1)
                            if v0 is None or v1 is None:
                                continue
                            regs[s0] = v0
                            regs[s1] = v1
                            emit(regs)
                    return step

                def step(regs, ctx, emit):
                    for value in _pred_values(ctx.facts, pred):
                        items = value.items
                        if len(items) == n:
                            p = items[i0]
                            v0 = p[1] if p[0] == l0 else value.get(l0)
                            p = items[i1]
                            v1 = p[1] if p[0] == l1 else value.get(l1)
                        else:
                            v0 = value.get(l0)
                            v1 = value.get(l1)
                        if v0 is None or v1 is None:
                            continue
                        regs[s0] = v0
                        regs[s1] = v1
                        nxt(regs, ctx, emit)
                return step

        def step(regs, ctx, emit):
            for value in _pred_values(ctx.facts, pred):
                for label, op, payload in ops:
                    comp = value.get(label)
                    if comp is None:
                        break
                    if op == _BIND:
                        regs[payload] = comp
                    elif op == _CHECK_CONST:
                        if comp != payload and \
                                not values_unify(payload, comp):
                            break
                    else:
                        expected = regs[payload]
                        if comp != expected and \
                                not values_unify(expected, comp):
                            break
                else:
                    nxt(regs, ctx, emit)
        return step

    kind, klabel, key = lookup
    if kind == "const":
        def step(regs, ctx, emit):
            bucket = _index_bucket(ctx.facts, pred, klabel, key)
            if not bucket:
                return
            for fact in bucket:
                value = fact.value
                for label, op, payload in ops:
                    comp = value.get(label)
                    if comp is None:
                        break
                    if op == _BIND:
                        regs[payload] = comp
                    elif op == _CHECK_CONST:
                        if comp != payload and \
                                not values_unify(payload, comp):
                            break
                    else:
                        expected = regs[payload]
                        if comp != expected and \
                                not values_unify(expected, comp):
                            break
                else:
                    nxt(regs, ctx, emit)
        return step

    kslot = key
    if all_bind and len(ops) == 1:
        l0, _, s0 = ops[0]
        pos = _positions(pred, schema, (l0,))
        if pos is not None:
            n, (i0,) = pos
            if terminal:
                def step(regs, ctx, emit):
                    kval = regs[kslot]
                    if isinstance(kval, TupleValue) and SELF_LABEL in kval:
                        kval = kval[SELF_LABEL]
                    facts_ = ctx.facts
                    index = facts_._indexes.get(pred)
                    by_label = index.get(klabel) \
                        if index is not None else None
                    if by_label is None:
                        facts_.lookup(pred, klabel, _PROBE)
                        by_label = facts_._indexes[pred][klabel]
                    bucket = by_label.get(kval)
                    if not bucket:
                        return
                    for fact in bucket:
                        value = fact.value
                        items = value.items
                        if len(items) == n:
                            p = items[i0]
                            v0 = p[1] if p[0] == l0 else value.get(l0)
                        else:
                            v0 = value.get(l0)
                        if v0 is not None:
                            regs[s0] = v0
                            emit(regs)
                return step

            def step(regs, ctx, emit):
                kval = regs[kslot]
                if isinstance(kval, TupleValue) and SELF_LABEL in kval:
                    kval = kval[SELF_LABEL]  # object binding at oid slot
                bucket = _index_bucket(ctx.facts, pred, klabel, kval)
                if not bucket:
                    return
                for fact in bucket:
                    value = fact.value
                    items = value.items
                    if len(items) == n:
                        p = items[i0]
                        v0 = p[1] if p[0] == l0 else value.get(l0)
                    else:
                        v0 = value.get(l0)
                    if v0 is not None:
                        regs[s0] = v0
                        nxt(regs, ctx, emit)
            return step
        if terminal:
            def step(regs, ctx, emit):
                kval = regs[kslot]
                if isinstance(kval, TupleValue) and SELF_LABEL in kval:
                    kval = kval[SELF_LABEL]
                bucket = _index_bucket(ctx.facts, pred, klabel, kval)
                if not bucket:
                    return
                for fact in bucket:
                    v0 = fact.value.get(l0)
                    if v0 is not None:
                        regs[s0] = v0
                        emit(regs)
            return step

        def step(regs, ctx, emit):
            kval = regs[kslot]
            if isinstance(kval, TupleValue) and SELF_LABEL in kval:
                kval = kval[SELF_LABEL]  # object binding at oid position
            bucket = _index_bucket(ctx.facts, pred, klabel, kval)
            if not bucket:
                return
            for fact in bucket:
                v0 = fact.value.get(l0)
                if v0 is not None:
                    regs[s0] = v0
                    nxt(regs, ctx, emit)
        return step

    def step(regs, ctx, emit):
        kval = regs[kslot]
        if isinstance(kval, TupleValue) and SELF_LABEL in kval:
            kval = kval[SELF_LABEL]  # object binding at oid position
        bucket = _index_bucket(ctx.facts, pred, klabel, kval)
        if not bucket:
            return
        for fact in bucket:
            value = fact.value
            for label, op, payload in ops:
                comp = value.get(label)
                if comp is None:
                    break
                if op == _BIND:
                    regs[payload] = comp
                elif op == _CHECK_CONST:
                    if comp != payload and \
                            not values_unify(payload, comp):
                        break
                else:
                    expected = regs[payload]
                    if comp != expected and \
                            not values_unify(expected, comp):
                        break
            else:
                nxt(regs, ctx, emit)
    return step


def _make_negation(pred, lookup, ops, nxt):
    """A fully-bound negated literal: fail when any candidate passes
    every check (all ops are checks — nothing binds)."""
    pred = pred.lower()

    def candidates(regs, ctx):
        if lookup is None:
            return _pred_values(ctx.facts, pred)
        kind, klabel, key = lookup
        if kind == "slot":
            key = regs[key]
            if isinstance(key, TupleValue) and SELF_LABEL in key:
                key = key[SELF_LABEL]
        bucket = _index_bucket(ctx.facts, pred, klabel, key)
        if bucket is None:
            return ()
        return [f.value for f in bucket]

    def step(regs, ctx, emit):
        for value in candidates(regs, ctx):
            for label, op, payload in ops:
                comp = value.get(label)
                if comp is None:
                    break
                expected = payload if op == _CHECK_CONST else regs[payload]
                if comp != expected and \
                        not values_unify(expected, comp):
                    break
            else:
                return  # a witness exists: the negation fails
        nxt(regs, ctx, emit)
    return step


def _make_getter(term, bound, slots):
    """regs -> resolved argument value (or the Var itself when the plan
    leaves it unbound at this point, mirroring ``_solve_builtin``)."""
    if isinstance(term, Constant):
        value = term.value
        return lambda regs: value
    if isinstance(term, Var):
        if term in bound:
            slot = slots[term]
            return lambda regs: regs[slot]
        return lambda regs: term
    if isinstance(term, ArithExpr):
        left = _make_getter(term.left, bound, slots)
        right = _make_getter(term.right, bound, slots)
        if left is None or right is None:
            return None
        op = term.op
        return lambda regs: _arith(op, left(regs), right(regs))
    return None


def _make_builtin(blit, bound, slots):
    """(step, bound') for one builtin literal, or None outside the
    fragment.  Unbound Var arguments pass through as placeholders; the
    solver's extra bindings land in their registers."""
    builtin = get_builtin(blit.name)
    getters = []
    unbound_ok = True
    for term in blit.args:
        getter = _make_getter(term, bound, slots)
        if getter is None:
            return None
        if not isinstance(term, (Var, Constant)) and \
                not set(term.variables()) <= bound:
            unbound_ok = False
        getters.append(getter)
    if not unbound_ok:
        return None
    getters = tuple(getters)
    solve = builtin.solve
    out_slots = {
        v: slots[v]
        for t in blit.args
        if isinstance(t, Var) and t not in bound
        for v in (t,)
    }
    now_bound = bound | {
        v for t in blit.args for v in t.variables()
    }
    if blit.negated:
        if out_slots:
            return None  # generic path raises; keep its behaviour

        def make(nxt):
            def step(regs, ctx, emit):
                for _ in solve([g(regs) for g in getters]):
                    return
                nxt(regs, ctx, emit)
            return step
        return make, bound

    def make(nxt):
        if not out_slots:
            def step(regs, ctx, emit):
                for _ in solve([g(regs) for g in getters]):
                    nxt(regs, ctx, emit)
            return step

        def step(regs, ctx, emit):
            for extra in solve([g(regs) for g in getters]):
                for var, value in extra.items():
                    regs[out_slots[var]] = value
                nxt(regs, ctx, emit)
        return step
    return make, now_bound


def _terminal_step(regs, ctx, emit):
    emit(regs)


#: shared tail of every chain; steps test ``nxt is _TERMINAL`` to fuse
#: the final hop into a direct ``emit(regs)`` call
_TERMINAL = _terminal_step


def _compile_chain(body, order, bound0, slots, schema):
    """Compile ``[body[i] for i in order]`` into one closure chain, or
    None when a literal falls outside the fragment.  Steps are built
    front to back (tracking the bound set), then chained in reverse."""
    makers = []
    bound = set(bound0)
    for pos in order:
        literal = body[pos]
        if isinstance(literal, Literal):
            if literal.negated:
                if not set(literal.variables()) <= bound:
                    return None  # active-domain negation: generic only
                compiled = _positive_steps(literal, bound, slots)
                if compiled is None:
                    return None
                lookup, ops, _ = compiled
                pred = literal.pred
                makers.append(
                    lambda nxt, p=pred, lk=lookup, o=ops:
                    _make_negation(p, lk, o, nxt)
                )
            else:
                compiled = _positive_steps(literal, bound, slots)
                if compiled is None:
                    return None
                lookup, ops, bound = compiled
                pred = literal.pred
                makers.append(
                    lambda nxt, p=pred, lk=lookup, o=ops:
                    _make_positive(p, lk, o, nxt, schema)
                )
        elif isinstance(literal, BuiltinLiteral):
            compiled = _make_builtin(literal, bound, slots)
            if compiled is None:
                return None
            make, bound = compiled
            makers.append(make)
        else:
            return None
    chain = _TERMINAL
    for make in reversed(makers):
        chain = make(chain)
    return chain


def _seed_ops(literal, slots):
    """The op list matching a delta fact against the seed literal (no
    candidate enumeration: the fact is given)."""
    ops = []
    bound: set[Var] = set()
    for label, term in literal.args.labeled:
        if isinstance(term, Constant):
            ops.append((label, _CHECK_CONST, term.value))
        elif term in bound:
            ops.append((label, _CHECK_SLOT, slots[term]))
        else:
            ops.append((label, _BIND, slots[term]))
            bound.add(term)
    return tuple(ops), bound


def _make_seed(ops, rest_chain, pred, schema):
    terminal = rest_chain is _TERMINAL
    if all(op == _BIND for _, op, _ in ops):
        if len(ops) == 1:
            l0, _, s0 = ops[0]
            pos = _positions(pred, schema, (l0,))
            if pos is not None:
                n, (i0,) = pos
                if terminal:
                    def seed(fact, regs, ctx, emit):
                        value = fact.value
                        items = value.items
                        if len(items) == n:
                            p = items[i0]
                            v0 = p[1] if p[0] == l0 else value.get(l0)
                        else:
                            v0 = value.get(l0)
                        if v0 is not None:
                            regs[s0] = v0
                            emit(regs)
                    return seed

                def seed(fact, regs, ctx, emit):
                    value = fact.value
                    items = value.items
                    if len(items) == n:
                        p = items[i0]
                        v0 = p[1] if p[0] == l0 else value.get(l0)
                    else:
                        v0 = value.get(l0)
                    if v0 is not None:
                        regs[s0] = v0
                        rest_chain(regs, ctx, emit)
                return seed
            if terminal:
                def seed(fact, regs, ctx, emit):
                    v0 = fact.value.get(l0)
                    if v0 is not None:
                        regs[s0] = v0
                        emit(regs)
                return seed

            def seed(fact, regs, ctx, emit):
                v0 = fact.value.get(l0)
                if v0 is not None:
                    regs[s0] = v0
                    rest_chain(regs, ctx, emit)
            return seed
        if len(ops) == 2:
            (l0, _, s0), (l1, _, s1) = ops
            pos = _positions(pred, schema, (l0, l1))
            if pos is not None:
                n, (i0, i1) = pos
                if terminal:
                    def seed(fact, regs, ctx, emit):
                        value = fact.value
                        items = value.items
                        if len(items) == n:
                            p = items[i0]
                            v0 = p[1] if p[0] == l0 else value.get(l0)
                            p = items[i1]
                            v1 = p[1] if p[0] == l1 else value.get(l1)
                        else:
                            v0 = value.get(l0)
                            v1 = value.get(l1)
                        if v0 is None or v1 is None:
                            return
                        regs[s0] = v0
                        regs[s1] = v1
                        emit(regs)
                    return seed

                def seed(fact, regs, ctx, emit):
                    value = fact.value
                    items = value.items
                    if len(items) == n:
                        p = items[i0]
                        v0 = p[1] if p[0] == l0 else value.get(l0)
                        p = items[i1]
                        v1 = p[1] if p[0] == l1 else value.get(l1)
                    else:
                        v0 = value.get(l0)
                        v1 = value.get(l1)
                    if v0 is None or v1 is None:
                        return
                    regs[s0] = v0
                    regs[s1] = v1
                    rest_chain(regs, ctx, emit)
                return seed
            if terminal:
                def seed(fact, regs, ctx, emit):
                    value = fact.value
                    v0 = value.get(l0)
                    if v0 is None:
                        return
                    v1 = value.get(l1)
                    if v1 is None:
                        return
                    regs[s0] = v0
                    regs[s1] = v1
                    emit(regs)
                return seed

            def seed(fact, regs, ctx, emit):
                value = fact.value
                v0 = value.get(l0)
                if v0 is None:
                    return
                v1 = value.get(l1)
                if v1 is None:
                    return
                regs[s0] = v0
                regs[s1] = v1
                rest_chain(regs, ctx, emit)
            return seed

    def seed(fact, regs, ctx, emit):
        value = fact.value
        for label, op, payload in ops:
            comp = value.get(label)
            if comp is None:
                return
            if op == _BIND:
                regs[payload] = comp
            elif op == _CHECK_CONST:
                if comp != payload and not values_unify(payload, comp):
                    return
            else:
                expected = regs[payload]
                if comp != expected and not values_unify(expected, comp):
                    return
        rest_chain(regs, ctx, emit)
    return seed


def _head_builder(head, schema, slots):
    pred = head.pred
    parts = []
    simple = True  # every field a plain Var, no class-reference coercion
    for label, term in head.args.labeled:
        getter = _make_getter(term, set(slots), slots)
        if getter is None:
            return None
        declared = schema.field_type(pred, label)
        coerce = isinstance(declared, NamedType) and schema.is_class(
            declared.name
        )
        refname = declared.name if coerce else None
        if coerce or not isinstance(term, Var):
            simple = False
        parts.append((label, getter, coerce, refname))
    if simple:
        slot_parts = sorted(
            (label, slots[term]) for label, term in head.args.labeled
        )
        from_sorted = TupleValue.from_sorted_items
        if len(slot_parts) == 2:
            (la, sa), (lb, sb) = slot_parts

            def build_value(regs):
                va = regs[sa]
                vb = regs[sb]
                tv = from_sorted(((la, va), (lb, vb)))
                if type(va) in _OIDFREE and type(vb) in _OIDFREE:
                    object.__setattr__(tv, "_max_oid", 0)
                return tv

            def build(regs):
                return Fact(pred, build_value(regs))
            return build, build_value
        if len(slot_parts) == 1:
            ((la, sa),) = slot_parts

            def build_value(regs):
                va = regs[sa]
                tv = from_sorted(((la, va),))
                if type(va) in _OIDFREE:
                    object.__setattr__(tv, "_max_oid", 0)
                return tv

            def build(regs):
                return Fact(pred, build_value(regs))
            return build, build_value

        def build_value(regs):
            return from_sorted(
                tuple((label, regs[slot]) for label, slot in slot_parts)
            )

        def build(regs):
            return Fact(pred, build_value(regs))
        return build, build_value
    # TupleValue stores items sorted; pre-sort so the hot path skips
    # the per-fact dict + sort of the general constructor
    parts.sort(key=lambda p: p[0])
    parts = tuple(parts)
    from_sorted = TupleValue.from_sorted_items

    def build_value(regs):
        items = []
        for label, getter, coerce, refname in parts:
            value = getter(regs)
            if coerce:
                oid = as_oid(value)
                if oid is None:
                    raise EvaluationError(
                        f"field {label!r} of {pred!r} references class"
                        f" {refname!r} but got non-object value {value!r}"
                    )
                value = oid
            items.append((label, value))
        return from_sorted(tuple(items))

    def build(regs):
        return Fact(pred, build_value(regs))
    return build, build_value


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def compile_rule(runtime, plan, schema) -> CompiledRule | None:
    """Specialize one planned rule, or None when outside the fragment."""
    rule = runtime.rule
    if plan is None or plan.order is None:
        return None
    if not _head_compilable(rule, schema):
        return None
    body = tuple(rule.body)
    variables = []
    for literal in body:
        variables.extend(literal.variables())
    variables.extend(rule.head.variables())
    slots: dict[Var, int] = {}
    for var in variables:
        if var not in slots:
            slots[var] = len(slots)
    chain = _compile_chain(body, plan.order, set(), slots, schema)
    if chain is None:
        return None
    builders = _head_builder(rule.head, schema, slots)
    if builders is None:
        return None
    head_build, head_build_value = builders
    seed_chains = {}
    seed_specs = []
    for pos, literal in enumerate(body):
        if not isinstance(literal, Literal) or literal.negated:
            continue
        rest_order = plan.delta_orders.get(pos)
        if rest_order is None:
            return None  # a seed position the planner could not order
        if not _simple_args(literal):
            return None
        ops, seed_bound = _seed_ops(literal, slots)
        rest_chain = _compile_chain(body, rest_order, seed_bound, slots,
                                    schema)
        if rest_chain is None:
            return None
        seed_chains[pos] = _make_seed(ops, rest_chain,
                                      literal.pred.lower(), schema)
        seed_specs.append((pos, literal.pred.lower()))
    return CompiledRule(
        rule_index=runtime.index,
        head_pred=rule.head.pred,
        nslots=len(slots),
        chain=chain,
        seed_chains=seed_chains,
        seed_specs=tuple(seed_specs),
        head_build=head_build,
        head_build_value=head_build_value,
    )

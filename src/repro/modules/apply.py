"""Application of modules to database states (Sections 4.1-4.2).

``apply_module(state, module, mode)`` computes the new state
``(E1, R1, S1)`` and, for data-invariant modes, the answer to the
module's goal.  An application is *legal* only if the initial state is
consistent and the resulting instance is defined and consistent; an
illegal application raises
:class:`~repro.errors.ModuleApplicationError` and leaves the input state
untouched.  Without ``base`` a legal one leaves it untouched too (a
fresh state is returned).

Mode semantics (quoting Section 4.1):

* **RIDI** — ordinary query: evaluate ``G_M`` over ``R0 ∪ R_M`` against
  ``E0``; the state does not change.
* **RADI** — ``R1 = R0 ∪ R_M``, ``S1 = S0 ∪ S_M``; rejected if the new
  instance is inconsistent; may also answer the goal.
* **RDDI** — ``R1 = R0 − R_M``, ``S1 = S0 − S_M``; may answer the goal.
* **RIDV** — EDB update: ``E1`` is the result of applying the update
  rules ``R_M`` to ``E0``; rules are unchanged. No goal.
* **RADV** — like RIDV, plus ``R1 = R0 ∪ R_M``, ``S1 = S0 ∪ S_M``.
* **RDDV** — ``E1 = E0 − E_M`` where ``E_M`` is the instance of
  ``(∅, R_M)``; ``R1 = R0 − R_M``; ``S1 = S0 − S_M``.

Given the checked instance ``I0`` of the input state as ``base``, an
insert-only RIDV write into a monotone program works in place and in
proportion to what it changes: the update rules run in the live EDB,
``I0`` is continued in place from the inserted facts ``E1 − E0``, and
the constraints are checked on what ``I0`` gained (see
:func:`_extend_in_place`).  Outcomes are the same as without ``base``;
``repro serve`` passes the instance it holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.modules import check_module_application
from repro.constraints.checker import ConsistencyChecker, Violation
from repro.engine import Engine, EvalConfig, Semantics
from repro.engine.goals import answer_goal
from repro.errors import LogresError, ModuleApplicationError
from repro.language.ast import Program, Rule
from repro.modules.module import Mode, Module
from repro.modules.state import DatabaseState, materialize
from repro.modules.txn import Savepoint
from repro.storage.factset import Fact, FactSet
from repro.testing.faults import FAULTS
from repro.types.schema import Schema
from repro.values.complex import Value
from repro.values.oids import OidGenerator


@dataclass
class ApplicationResult:
    """The outcome of a legal module application."""

    state: DatabaseState          # the new database state (E1, R1, S1)
    instance: FactSet             # the materialized instance I1
    answers: list[dict[str, Value]] | None  # goal answers (DI modes only)
    mode: Mode
    violations_checked: int = 0
    #: whether the evaluated program invents oids (from its analysis);
    #: if not, ``instance`` equals a materialization with any generator
    invents_oids: bool = True
    #: whether ``instance`` was extended from a base instance rather
    #: than materialized from scratch
    extended: bool = False
    #: ``(E1 − E0, E0 − E1)`` when the application read them off its
    #: undo journal (the in-place path); None where E1 is a new set
    edb_delta: tuple[list[Fact], list[Fact]] | None = None

    def __repr__(self) -> str:
        goal = (
            f", {len(self.answers)} goal answers"
            if self.answers is not None else ""
        )
        return (
            f"ApplicationResult({self.mode.value}:"
            f" {self.instance.count()} instance facts{goal})"
        )


def apply_module(
    state: DatabaseState,
    module: Module,
    mode: Mode,
    semantics: Semantics = Semantics.INFLATIONARY,
    config: EvalConfig | None = None,
    oidgen: OidGenerator | None = None,
    check_initial: bool = True,
    instrumentation=None,
    base: FactSet | None = None,
    fingerprints: dict[str, str] | None = None,
) -> ApplicationResult:
    """Apply ``module`` to ``state`` under ``mode``.

    ``semantics`` selects the rule semantics for every fixpoint involved —
    this is the mechanism making "modules and databases parametric with
    respect to the semantics of the rules they support" (Section 1).
    An enabled :class:`repro.observability.Instrumentation` records the
    whole application into the ``module_apply_time{mode=...}`` histogram
    and receives the final consistency check's violations as events.

    ``base`` is an optional instance of ``state`` under ``semantics``
    that passed the consistency check.  An insert-only RIDV write then
    works in place: on success ``state.edb`` is ``E1`` and ``base`` is
    ``I1`` (the result holds both), and constraints are checked on the
    facts ``base`` gained (see :func:`_extend_in_place`).  Every
    outcome, error message included, is the one without ``base``; a
    failure restores ``base`` with the state.
    ``fingerprints``, if given, must be ``state_fingerprints(state)``:
    the savepoint takes them instead of hashing the state again.

    The whole application runs inside a :class:`repro.modules.txn.Savepoint`
    over the *input* state: any failure — a mode check, a constraint
    violation, a :class:`~repro.errors.EvalBudgetExceeded` guard breach,
    or an arbitrary mid-apply exception — rolls the input state back to
    exactly its pre-apply ``(E, R, S)``, verified by fingerprint
    identity, restores ``base`` by its journal, and re-raises the
    original failure.  A
    ``module-rollback`` observability event records each rollback.
    """
    obs = instrumentation
    if obs is not None and not obs.enabled:
        obs = None
    started = time.perf_counter() if obs is not None else 0.0
    savepoint = Savepoint(state, oidgen, fingerprints, instance=base)
    try:
        mode_diags = check_module_application(state, module, mode)
        errors = [d for d in mode_diags if d.severity is Severity.ERROR]
        if errors:
            raise ModuleApplicationError(
                errors[0].message, tuple(mode_diags)
            )
        if check_initial:
            checker = ConsistencyChecker(state.schema, state.denials())
            initial = materialize(state, semantics, config, oidgen)
            _reject_if_inconsistent(
                checker.check(initial), state, module, mode, "initial"
            )

        try:
            if FAULTS.enabled:
                FAULTS.fire(
                    "module.apply",
                    guard=config.guard if config is not None else None,
                )
            if mode is Mode.RIDI:
                result = _apply_ridi(state, module, semantics, config,
                                     oidgen, obs)
            elif mode is Mode.RADI:
                result = _apply_radi(state, module, semantics, config,
                                     oidgen, obs)
            elif mode is Mode.RDDI:
                result = _apply_rddi(state, module, semantics, config,
                                     oidgen, obs)
            elif mode in (Mode.RIDV, Mode.RADV):
                result = _apply_datavariant(
                    state, module, mode, semantics, config, oidgen, obs,
                    base, savepoint.fingerprints,
                )
            else:
                result = _apply_rddv(state, module, semantics, config,
                                     oidgen, obs)
        except ModuleApplicationError:
            raise
        except LogresError as exc:
            raise ModuleApplicationError(
                f"applying module {module.name!r} with {mode.value} failed:"
                f" {exc}"
            ) from exc
        savepoint.release()
        return result
    except BaseException as exc:
        _rollback(savepoint, module, mode, exc, obs)
        raise
    finally:
        if obs is not None and obs.metrics is not None:
            obs.metrics.observe(
                "module_apply_time",
                (("mode", mode.value),),
                time.perf_counter() - started,
            )


def _rollback(savepoint: Savepoint, module: Module, mode: Mode,
              cause: BaseException, obs) -> None:
    """Restore the pre-apply state and record the rollback.

    A failed restoration (:class:`~repro.errors.TransactionError`)
    propagates *instead of* the original failure, chained to it —
    corruption outranks the error that exposed it.
    """
    from repro.errors import TransactionError

    restored = False
    try:
        savepoint.rollback()
        restored = True
    except TransactionError as txn_exc:
        raise txn_exc from cause
    finally:
        if obs is not None:
            obs.module_rollback(
                module=module.name,
                mode=mode.value,
                reason=type(cause).__name__,
                error=str(cause),
                restored=restored,
            )


def _reject_if_inconsistent(
    violations: list[Violation],
    state: DatabaseState,
    module: Module,
    mode: Mode,
    which: str,
) -> None:
    if violations:
        preview = "; ".join(v.render() for v in violations[:3])
        message = (
            f"module {module.name!r} ({mode.value}): the {which} state is"
            f" inconsistent — {preview}"
        )
        code = "LG704" if which == "initial" else "LG703"
        raise ModuleApplicationError(
            message,
            (Diagnostic(code, Severity.ERROR, message),),
        )


def _finalize(
    new_state: DatabaseState,
    module: Module,
    mode: Mode,
    semantics: Semantics,
    config: EvalConfig | None,
    oidgen: OidGenerator | None,
    obs=None,
    goal_rules: tuple[Rule, ...] = (),
    engine: Engine | None = None,
) -> ApplicationResult:
    """Materialize I1, verify consistency, answer the goal if requested.

    ``engine``, if given, is the evaluation engine of ``new_state``
    (and ``goal_rules``) that the caller already built."""
    if engine is None:
        engine = Engine(new_state.schema,
                        new_state.evaluation_program(goal_rules),
                        config=config, oidgen=oidgen)
    instance = engine.run(new_state.edb, semantics)
    if FAULTS.enabled:
        FAULTS.fire(
            "module.finalize",
            guard=config.guard if config is not None else None,
        )
    denials = new_state.denials() + tuple(
        r for r in module.rules if r.is_denial
    )
    checker = ConsistencyChecker(new_state.schema, denials)
    violations = checker.check(instance, instrumentation=obs)
    _reject_if_inconsistent(violations, new_state, module, mode, "resulting")
    answers = None
    if module.goal is not None and mode.allows_goal:
        answers = answer_goal(module.goal, instance, new_state.schema)
    return ApplicationResult(
        state=new_state,
        instance=instance,
        answers=answers,
        mode=mode,
        invents_oids=engine.analysis.has_invention,
    )


def _insert_only(module: Module, mode: Mode) -> bool:
    """A RIDV module that changes no schema, adds no denial and
    deletes nothing."""
    return mode is Mode.RIDV and not (
        module.equations or module.isa or module.functions
        or any(r.is_denial or r.head.negated for r in module.rules)
    )


def _may_overwrite(updates: Engine) -> bool:
    """Whether an update rule has a class head that invents no oid:
    the one way an insert-only module can overwrite an o-value."""
    return any(
        updates.schema.is_class(r.rule.head.pred)
        and not r.safety.invents_oid
        for r in updates.runtimes
    )


def _extend_in_place(
    state: DatabaseState,
    updates: Engine,
    semantics: Semantics,
    config: EvalConfig | None,
    oidgen: OidGenerator | None,
    base: FactSet,
    engine: Engine,
    fingerprints: dict[str, str],
) -> ApplicationResult | None:
    """An insert-only write into a monotone program, in place.

    ``updates`` evaluates the module's update rules, none of which
    overwrites (:func:`_may_overwrite`); ``engine`` evaluates
    ``state``'s program and is :meth:`~Engine.extendable`; ``base`` is
    its checked instance.  The update rules run in the live EDB under
    a nested :class:`~repro.modules.txn.Savepoint`, whose journal then
    holds exactly ``E1 − E0``.  ``base`` is continued in place from
    those facts (:meth:`Engine.extend`) and the constraints are checked
    on the facts it gained
    (:meth:`ConsistencyChecker.extension_consistent`).  The instance is
    monotone in the EDB, so ``base`` is then ``I1``.

    A removal, a violation, or an evaluation failure other than a
    timeout or cancellation undoes the EDB, ``base`` and the oid
    generator by their journals (:meth:`Savepoint.undo`) and returns
    None: the full path then runs exactly as without ``base`` and
    words any rejection, and the caller's savepoint proves the state
    if it fails.  A failure that propagates is rolled back by the
    caller's savepoint."""
    attempt = Savepoint(state, oidgen, fingerprints, instance=base)
    edb = updates.run(state.edb, semantics, in_place=True)
    inserted = attempt.inserted()
    added = None
    if inserted is not None:
        try:
            added = engine.extend(base, inserted, edb, semantics)
        except LogresError as exc:
            # deterministic failures re-run on the full path, which
            # words them; a timeout or cancellation would only recur
            if getattr(exc, "budget", "") in ("timeout", "cancelled"):
                raise
    if added is not None:
        if FAULTS.enabled:
            FAULTS.fire(
                "module.finalize",
                guard=config.guard if config is not None else None,
            )
        checker = ConsistencyChecker(state.schema, state.denials())
        if checker.extension_consistent(base, added):
            attempt.release()
            return ApplicationResult(
                state=DatabaseState(state.schema, edb, state.rules),
                instance=base,
                answers=None,
                mode=Mode.RIDV,
                invents_oids=engine.analysis.has_invention,
                extended=True,
                edb_delta=(inserted, []),
            )
    attempt.undo()
    return None


def _apply_ridi(state, module, semantics, config, oidgen, obs=None):
    # evaluation sees R0 ∪ RM, but the persistent state is unchanged
    eval_schema = module.extend_schema(state.schema)
    scratch = DatabaseState(eval_schema, state.edb, state.rules)
    result = _finalize(
        scratch, module, Mode.RIDI, semantics, config, oidgen, obs,
        goal_rules=tuple(r for r in module.rules if not r.is_denial),
    )
    return ApplicationResult(
        state=state.copy(),  # E1 = E0, R1 = R0, S1 = S0
        instance=result.instance,
        answers=result.answers,
        mode=Mode.RIDI,
        invents_oids=result.invents_oids,
    )


def _apply_radi(state, module, semantics, config, oidgen, obs=None):
    new_state = DatabaseState(
        schema=module.extend_schema(state.schema),
        edb=state.edb.copy(),
        rules=state.rules + tuple(module.rules),
    )
    return _finalize(new_state, module, Mode.RADI, semantics, config,
                     oidgen, obs)


def _apply_rddi(state, module, semantics, config, oidgen, obs=None):
    removed = list(module.rules)
    kept = tuple(r for r in state.rules if r not in removed)
    new_state = DatabaseState(
        schema=module.shrink_schema(state.schema),
        edb=state.edb.copy(),
        rules=kept,
    )
    return _finalize(new_state, module, Mode.RDDI, semantics, config,
                     oidgen, obs)


def _update_engine(
    module: Module,
    schema: Schema,
    config: EvalConfig | None,
    oidgen: OidGenerator | None,
) -> Engine:
    """The engine of the update rules ``R_M`` (RIDV/RADV): its run
    over ``E0`` is ``E1``."""
    update_rules = tuple(r for r in module.rules if not r.is_denial)
    return Engine(schema, Program(update_rules), config=config,
                  oidgen=oidgen)


def _apply_datavariant(state, module, mode, semantics, config, oidgen,
                       obs=None, base=None, fingerprints=None):
    schema1 = module.extend_schema(state.schema)
    updates = _update_engine(module, schema1, config, oidgen)
    engine = None
    if base is not None and _insert_only(module, mode) \
            and not _may_overwrite(updates):
        # the module keeps schema and program: I1 is (E1, R0, S0)'s
        engine = Engine(state.schema, state.evaluation_program(),
                        config=config, oidgen=oidgen)
        if engine.extendable(semantics):
            result = _extend_in_place(state, updates, semantics, config,
                                      oidgen, base, engine, fingerprints)
            if result is not None:
                return result
    e1 = updates.run(state.edb, semantics)
    rules1 = state.rules
    if mode is Mode.RADV:
        rules1 = rules1 + tuple(module.rules)
    new_state = DatabaseState(schema=schema1, edb=e1, rules=rules1)
    return _finalize(new_state, module, mode, semantics, config, oidgen,
                     obs, engine=engine)


def _apply_rddv(state, module, semantics, config, oidgen, obs=None):
    # E_M: the instance of (∅, R_M) — what the deleted rules alone derive
    update_rules = tuple(r for r in module.rules if not r.is_denial)
    engine = Engine(state.schema, Program(update_rules), config=config,
                    oidgen=oidgen)
    em = engine.run(FactSet(), semantics)
    e1 = state.edb.minus(em)
    removed = list(module.rules)
    new_state = DatabaseState(
        schema=module.shrink_schema(state.schema),
        edb=e1,
        rules=tuple(r for r in state.rules if r not in removed),
    )
    return _finalize(new_state, module, Mode.RDDV, semantics, config,
                     oidgen, obs)

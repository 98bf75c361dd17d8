"""Transactional module application: savepoints with verified rollback.

:func:`repro.modules.apply.apply_module` promises that an illegal
application "leaves the input state untouched".  This module makes that
promise *verifiable* and keeps it under arbitrary mid-apply failures
(constraint violations, guard breaches, injected faults, plain bugs):

1. :class:`Savepoint` captures the pre-apply state — the schema and
   rule-tuple references (both immutable), an undo-journal mark on the
   EDB fact set (:meth:`repro.storage.factset.FactSet.begin_journal`),
   the :class:`~repro.values.oids.OidGenerator` position, and the
   :func:`state_fingerprints` of the triple ``(E, R, S)``.
2. On failure, :meth:`Savepoint.rollback` replays the journal inverses,
   restores the references and the oid counter, and then *proves* the
   restoration by recomputing the fingerprints: a mismatch raises
   :class:`~repro.errors.TransactionError` (chained to the original
   failure by the caller), because a half-restored database state must
   never be silently reported as intact.
3. On success, :meth:`Savepoint.release` drops the journal.

Fingerprints reuse the persistence encoders, which produce canonical
(sorted) JSON, so they are insensitive to dict/set iteration-order
churn and identical across processes.
"""

from __future__ import annotations

import json

from repro.errors import TransactionError
from repro.language.ast import Program
from repro.modules.state import DatabaseState
from repro.observability.report import fingerprint, fingerprint_parts
from repro.storage.persist import (
    canonical_fact_texts,
    encode_program,
    encode_schema,
    json_list_parts,
)
from repro.values.oids import OidGenerator


def state_fingerprints(state: DatabaseState) -> dict[str, str]:
    """Short content hashes of each component of ``(E, R, S)``."""
    def fp(payload) -> str:
        return fingerprint(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )

    return {
        "schema": fp(encode_schema(state.schema)),
        # the same hash as fp(encode_factset(edb)), one fact at a time
        "edb": fingerprint_parts(
            json_list_parts(canonical_fact_texts(state.edb))
        ),
        "program": fp(encode_program(Program(state.rules))),
    }


class Savepoint:
    """One reversible scope over a :class:`DatabaseState`.

    Usage (what :func:`repro.modules.apply.apply_module` does)::

        sp = Savepoint(state, oidgen)
        try:
            ...  # anything, including in-place EDB mutation
        except BaseException:
            sp.rollback()   # state == pre-apply, verified
            raise
        else:
            sp.release()
    """

    def __init__(self, state: DatabaseState,
                 oidgen: OidGenerator | None = None,
                 fingerprints: dict[str, str] | None = None):
        """``fingerprints``, when the caller already holds them, are
        ``state_fingerprints(state)``; they are then not recomputed."""
        self.state = state
        self.oidgen = oidgen
        self._schema = state.schema
        self._rules = tuple(state.rules)
        self._owns_journal = not state.edb.journaling
        self._mark = state.edb.begin_journal()
        self._oid_next = oidgen.next_number if oidgen is not None else None
        self.fingerprints = (fingerprints if fingerprints is not None
                             else state_fingerprints(state))

    def rollback(self) -> None:
        """Restore the captured state exactly; verify by fingerprint."""
        state = self.state
        state.edb.rollback_to(self._mark)
        if self._owns_journal:
            state.edb.end_journal()
        state.schema = self._schema
        state.rules = self._rules
        if self.oidgen is not None:
            self.oidgen.restore(self._oid_next)
        after = state_fingerprints(state)
        if after != self.fingerprints:
            drifted = sorted(
                k for k in after if after[k] != self.fingerprints[k]
            )
            raise TransactionError(
                "savepoint rollback failed to restore the"
                f" {', '.join(drifted)} component(s) of the database"
                " state (fingerprint mismatch after undo)"
            )

    def release(self) -> None:
        """Commit: drop the undo journal (if this savepoint opened it)."""
        if self._owns_journal:
            self.state.edb.end_journal()

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
   restoration by recomputing the fingerprints from scratch: a mismatch
   raises :class:`~repro.errors.TransactionError` (chained to the
   original failure by the caller), because a half-restored database
   state must never be silently reported as intact.
3. On success, :meth:`Savepoint.release` drops the journal.

Fingerprints reuse the persistence encoders, which produce canonical
(sorted) JSON, so they are insensitive to dict/set iteration-order
churn and identical across processes.  The EDB component is an additive
multiset digest (AdHash): the sum, modulo 2**256, of the SHA-256 of
each fact's canonical JSON.  A sum does not depend on fact order, and
it can be carried from one state to the next by adding the hashes of
the facts a write inserted and subtracting those it removed, so a
write costs O(|delta|) rather than O(|EDB|) (``prior`` below).  The
server's WAL v2 records carry this digest; v1 records carry the
sorted-JSON hash of :func:`_v1_edb_fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from repro.errors import TransactionError
from repro.language.ast import Program
from repro.modules.state import DatabaseState
from repro.observability.report import fingerprint
from repro.storage.factset import Fact, FactSet
from repro.storage.persist import (
    canonical_fact_text,
    canonical_fact_texts,
    encode_program,
    encode_schema,
    json_list_parts,
)
from repro.values.oids import OidGenerator

#: the EDB digest is a sum of 256-bit fact hashes modulo this
_DIGEST_MODULUS = 1 << 256


def _digest_sum(facts: Iterable[Fact]) -> int:
    """The sum of the SHA-256 of each fact's canonical JSON, as 256-bit
    integers (not reduced).  A sum, unlike XOR, keeps two equal
    contributions from cancelling."""
    sha256 = hashlib.sha256
    total = 0
    for fact in facts:
        total += int.from_bytes(
            sha256(canonical_fact_text(fact).encode("utf-8")).digest(),
            "big")
    return total


def _v1_edb_fingerprint(edb: FactSet) -> str:
    """The EDB fingerprint of WAL v1 records: the hash of the sorted
    canonical JSON of every fact, ``fp(encode_factset(edb))``.  Only
    replay of a v1 record uses it.  The text is hashed piece by piece,
    never joined."""
    digest = hashlib.sha256()
    for part in json_list_parts(canonical_fact_texts(edb)):
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()[:16]


def state_fingerprints(
    state: DatabaseState,
    prior: tuple[DatabaseState, dict[str, str]] | None = None,
) -> dict[str, str]:
    """Content hashes of each component of ``(E, R, S)``.

    ``prior``, if given, is ``(pre, state_fingerprints(pre))`` for an
    earlier state ``pre`` whose EDB has not changed since: the EDB
    digest is then ``pre``'s plus the hashes of ``E1 − E0`` minus those
    of ``E0 − E1``, the same value as from scratch at the cost of the
    two differences."""
    def fp(payload) -> str:
        return fingerprint(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )

    if prior is None:
        edb = _digest_sum(state.edb.facts())
    else:
        pre, pre_prints = prior
        edb = (int(pre_prints["edb"], 16)
               + _digest_sum(state.edb.minus(pre.edb).facts())
               - _digest_sum(pre.edb.minus(state.edb).facts()))
    return {
        "schema": fp(encode_schema(state.schema)),
        "edb": format(edb % _DIGEST_MODULUS, "064x"),
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
        # from scratch, never carried from a prior state: the proof
        # must not lean on the digest chain it would vouch for
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

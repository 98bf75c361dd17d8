"""The per-database checksummed JSONL write-ahead log.

The server's durability protocol (``docs/SERVE.md``):

1. a write request executes transactionally in memory
   (:func:`repro.modules.apply.apply_module` under a Savepoint);
2. on success, one **WAL record** — the logical operation (module
   source, mode, semantics), the pre-apply oid-generator position, and
   the post-apply state fingerprints — is appended to
   ``<name>.wal.jsonl`` and **fsynced** before the request is
   acknowledged;
3. every ``snapshot_interval`` commits (and at graceful shutdown) the
   state is rewritten atomically via the crash-safe format-v2
   persistence (:func:`repro.storage.persist.atomic_write_text`), and
   the WAL prefix the snapshot covers is truncated.

The commit point is the fsynced append: a crash *before* it loses an
unacknowledged request (the client saw no 200), a crash *after* it
loses nothing — startup replays the WAL tail past the snapshot by
re-executing each record (oid generation restored to the recorded
position makes the replay bit-deterministic) and verifies the recorded
post-state fingerprints.

Record versions: a v2 record's ``post.edb`` is the additive EDB digest
of :func:`repro.modules.txn.state_fingerprints`, which a write carries
forward from its delta.  A v1 record's ``post.edb`` is the sorted-JSON
hash of the whole EDB; replay still reads v1 records and checks them
with that hash, while the digest chain carries on underneath, so a log
may hold v1 records followed by v2 ones.  Any other version is refused.

Every record line carries a sha256 checksum over its canonical body
(the same scheme as the format-v2 snapshots).  Because appends are
fsynced record-by-record, a crash can only tear the **final** line;
replay therefore tolerates exactly one trailing torn/corrupt line
(that record was never acknowledged) and raises
:class:`~repro.errors.StorageError` for corruption anywhere earlier.

Fault points (``docs/ROBUSTNESS.md``): ``server.wal.append`` fires
before a record reaches the file, ``server.snapshot`` before a
snapshot rewrite.
"""

from __future__ import annotations

import json
import os

from repro.errors import StorageError
from repro.storage.persist import atomic_write_text, state_checksum
from repro.testing.faults import FAULTS

#: bump when a record field changes meaning; replay refuses the future
WAL_VERSION = 2

#: every record version replay reads (v1: sorted-JSON ``post.edb``)
READABLE_VERSIONS = (1, 2)


def make_record(seq: int, kind: str, **fields) -> dict:
    """One WAL record body (checksum added at append time)."""
    record = {"version": WAL_VERSION, "seq": seq, "kind": kind}
    record.update(fields)
    return record


class WriteAheadLog:
    """Append-fsync-ack JSONL log for one managed database."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._stream = None

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record: write, flush, fsync — the commit
        point of the server's write path."""
        if FAULTS.enabled:
            FAULTS.fire("server.wal.append")
        body = dict(record)
        body.pop("checksum", None)
        line = json.dumps({**body, "checksum": state_checksum(body)},
                          sort_keys=True)
        if self._stream is None or self._stream.closed:
            self._stream = open(self.path, "a", encoding="utf-8")
        self._stream.write(line + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def fsync(self) -> None:
        if self._stream is not None and not self._stream.closed:
            self._stream.flush()
            os.fsync(self._stream.fileno())

    def close(self) -> None:
        if self._stream is not None and not self._stream.closed:
            self.fsync()
            self._stream.close()
        self._stream = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self, after_seq: int = 0) -> list[dict]:
        """Every committed record with ``seq > after_seq``, in order.

        A torn or checksum-corrupt **final** line is the signature of a
        crash mid-append — that record was never acknowledged, so it is
        dropped.  The same damage anywhere earlier means the log itself
        is corrupt and raises :class:`StorageError` (→ LG901).  A
        record of a version outside :data:`READABLE_VERSIONS` raises
        wherever it stands: its checksum verified, so it was written
        whole, and dropping it would lose an acknowledged write.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        records: list[dict] = []
        for index, line in enumerate(lines):
            torn = index == len(lines) - 1
            problem = None
            record = None
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problem = f"unparseable record: {exc}"
            if record is not None:
                if not isinstance(record, dict):
                    problem = "record is not a JSON object"
                else:
                    recorded = record.pop("checksum", None)
                    computed = state_checksum(record)
                    if recorded != computed:
                        problem = (
                            "checksum mismatch"
                            f" (recorded {str(recorded)[:12]!r},"
                            f" computed {computed[:12]!r})"
                        )
                    elif record.get("version") not in READABLE_VERSIONS:
                        torn = False
                        problem = (
                            f"unsupported WAL record version"
                            f" {record.get('version')!r}"
                        )
            if problem is not None:
                if torn:
                    # torn tail from a crash mid-append: the record was
                    # never acknowledged, dropping it is the correct
                    # recovery (docs/SERVE.md)
                    break
                raise StorageError(
                    f"corrupt write-ahead log {self.path}"
                    f" (record {index + 1}): {problem}"
                )
            if record.get("seq", 0) > after_seq:
                records.append(record)
        return records

    def last_seq(self) -> int:
        records = self.records()
        return records[-1]["seq"] if records else 0

    # ------------------------------------------------------------------
    # truncation (after a snapshot)
    # ------------------------------------------------------------------
    def truncate(self, up_to_seq: int) -> None:
        """Drop records covered by a snapshot at ``up_to_seq``;
        atomic, so a crash mid-truncate leaves the old (longer but
        still correct) log."""
        self.close()
        kept = [
            json.dumps({**r, "checksum": state_checksum(r)},
                       sort_keys=True)
            for r in self.records(after_seq=up_to_seq)
        ]
        text = "\n".join(kept) + ("\n" if kept else "")
        atomic_write_text(self.path, text)

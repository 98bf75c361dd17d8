"""Named persistent databases: locks, snapshots, WAL recovery.

A :class:`ManagedDatabase` wraps one :class:`repro.core.database.Database`
with everything a server needs to share it safely:

* a **reader/writer lock** — writers are serialized; readers take the
  lock only long enough to :meth:`~repro.storage.factset.FactSet.copy`
  a snapshot (the copy carries the hash indexes) and evaluate entirely
  outside it, so a long-running read never blocks a write and a write
  never blocks reads;
* the **materialized instance** per semantics — the instance is a
  function of the state (E, R, S), which changes only when
  ``applied_seq`` advances, so :meth:`ManagedDatabase.materialized`
  evaluates once per ``(applied_seq, semantics)`` and later reads at
  the same seq answer from the held instance (no invalidation code: a
  committed write or replay moves the seq past every entry);
* the **write path** over that instance — a write hands the *checked*
  entry of its semantics (one a committed write or replay stored) to
  :func:`~repro.modules.apply.apply_module` as the base an insert-only
  write extends, and once committed leaves its own instance as the
  entry of the new seq when the program invents no oids (the instance
  then equals a fresh-generator read), so the read after a write hits;
  replay threads the entry from record to record the same way;
* the **write-ahead log** (:mod:`repro.server.wal`) appended-and-fsynced
  before any write is acknowledged;
* **snapshot + recovery**: the state is periodically rewritten through
  the crash-safe format-v2 persistence with the covered WAL position
  embedded in the payload, and :meth:`ManagedDatabase.open` replays the
  WAL tail past the snapshot, restoring the oid generator to each
  record's position so the replay is bit-deterministic and verifying
  the recorded post-state fingerprints;
* the **fingerprint chain** — :meth:`ManagedDatabase.open` and
  :meth:`ManagedDatabase.create` hash the EDB once; from then on each
  committed or replayed write carries the additive EDB digest forward
  from its own delta (:func:`~repro.modules.txn.state_fingerprints`
  with ``prior``), and info reads return the committed fingerprints.

The :class:`DatabaseRegistry` is the tenancy surface: databases are
named files under one data directory, discovered at startup and
creatable at runtime.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass

from repro.core.database import Database
from repro.engine import EvalConfig, Semantics
from repro.engine.guards import ResourceGuard
from repro.errors import LogresError, StorageError
from repro.language.ast import Program, Rule
from repro.modules.apply import ApplicationResult, apply_module
from repro.modules.module import Mode, Module
from repro.modules.state import DatabaseState, materialize
from repro.modules.txn import _v1_edb_fingerprint, state_fingerprints
from repro.server.wal import WriteAheadLog, make_record
from repro.storage.factset import FactSet
from repro.storage.persist import atomic_write_text, iter_state_text
from repro.testing.faults import FAULTS
from repro.types.schema import Schema
from repro.values.oids import OidGenerator

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

SNAPSHOT_SUFFIX = ".state.json"
WAL_SUFFIX = ".wal.jsonl"


def validate_name(name: str) -> str:
    """Database names are path components; reject anything that is not
    a short lowercase slug (no traversal, no surprises)."""
    if not _NAME_RE.match(name or ""):
        raise ValueError(
            f"invalid database name {name!r}: expected"
            " [a-z0-9][a-z0-9_-]{0,63}"
        )
    return name


class RWLock:
    """A reader/writer lock: many readers or one writer.

    Writer-preferring: once a writer is waiting, new readers queue
    behind it, so a steady read stream cannot starve writes.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Scope:
        def __init__(self, acquire, release):
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()

        def __exit__(self, *exc):
            self._release()

    def read(self) -> "_Scope":
        return self._Scope(self.acquire_read, self.release_read)

    def write(self) -> "_Scope":
        return self._Scope(self.acquire_write, self.release_write)


@dataclass(frozen=True)
class Materialized:
    """The instance of the state at ``seq`` under one semantics, with
    the schema and denials a read needs beside it.

    ``limits`` are the guard's ``(max_facts, max_inventions,
    max_fact_size)`` the evaluation succeeded under.  Evaluation is
    deterministic, so any guard at least as loose in every dimension
    would have succeeded too; a tighter one must re-evaluate to
    reproduce its breach exactly.  The instance is shared between
    concurrent readers and must never be mutated.

    ``checked`` is true only for an entry stored by a committed write
    or by WAL replay: the state it is the instance of passed the
    consistency check, so a later insert-only write may extend it."""

    seq: int
    limits: tuple[int | None, ...]
    schema: Schema
    denials: tuple[Rule, ...]
    instance: FactSet
    checked: bool = False

    def covers(self, limits: tuple[int | None, ...]) -> bool:
        """True when every requested limit is at least as loose as the
        one this entry was filled under (``None`` is unbounded)."""
        return all(
            asked is None or (held is not None and asked >= held)
            for asked, held in zip(limits, self.limits)
        )


def _guard_limits(guard: ResourceGuard | None) -> tuple[int | None, ...]:
    if guard is None:
        return (None, None, None)
    return (guard.max_facts, guard.max_inventions, guard.max_fact_size)


class ManagedDatabase:
    """One named database: Database + RWLock + WAL + snapshots, and the
    materialized instance per semantics at the current ``applied_seq``."""

    def __init__(self, name: str, directory: str,
                 snapshot_interval: int = 16,
                 semantics: Semantics = Semantics.INFLATIONARY,
                 metrics=None):
        self.name = validate_name(name)
        self.directory = os.fspath(directory)
        self.snapshot_interval = max(1, snapshot_interval)
        self.semantics = semantics
        self.lock = RWLock()
        self.db: Database | None = None
        self.wal = WriteAheadLog(self.wal_path)
        #: seq of the last committed (WAL-appended) write
        self.applied_seq = 0
        #: how many WAL records startup replayed past the snapshot
        self.recovered_records = 0
        self._writes_since_snapshot = 0
        #: snapshot rewrites that failed after a committed write — the
        #: write is still durable (it is in the WAL); this is the
        #: graceful-degradation counter the server surfaces as a metric
        self.snapshot_failures = 0
        #: at most one :class:`Materialized` per semantics; an entry
        #: whose ``seq`` is behind ``applied_seq`` is simply never hit
        self._materialized: dict[Semantics, Materialized] = {}
        self._materialized_lock = threading.Lock()
        #: ``state_fingerprints(self.db.state)``, set by
        #: ``create``/``open`` and by every committed or replayed write:
        #: a write hands them to its savepoint and carries its ``post``
        #: forward from them, and info reads return them
        self._fingerprints: dict[str, str] = {}
        #: optional :class:`~repro.observability.MetricsRegistry` that
        #: counts :meth:`materialized` hits and misses per database
        self.metrics = metrics

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, self.name + SNAPSHOT_SUFFIX)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, self.name + WAL_SUFFIX)

    @property
    def exists(self) -> bool:
        return os.path.exists(self.snapshot_path)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def create(self, source: str) -> None:
        """Create from LOGRES source (schema + rules + optional facts)
        and write the initial snapshot."""
        if self.exists:
            raise StorageError(
                f"database {self.name!r} already exists"
            )
        self.db = Database.from_source(source)
        self._commit_loaded()
        self._write_snapshot()

    def open(self) -> None:
        """Load the snapshot and replay the WAL tail past it.

        Replay re-executes each logical record with the oid generator
        restored to the recorded pre-apply position, then proves the
        recovery by comparing the recorded post-apply fingerprints —
        a mismatch means the snapshot/WAL pair is not self-consistent
        and surfaces as :class:`StorageError` (→ LG901).  The EDB is
        hashed in full once, here; each record then carries the digest
        forward from its delta."""
        text = _read_state_file(self.snapshot_path)
        self.db = Database.loads(text)
        envelope = json.loads(text)
        self.applied_seq = int(envelope.get("wal_seq", 0))
        oid_next = envelope.get("oid_next")
        if oid_next:
            # exact position, not just "above the EDB": replay and
            # future applies must consume the same numbers the original
            # process would have
            self.db.oidgen.restore(max(1, int(oid_next)))
        self._commit_loaded()
        self.recovered_records = 0
        for record in self.wal.records(after_seq=self.applied_seq):
            self._replay(record)
            self.recovered_records += 1
        self._writes_since_snapshot = self.recovered_records

    def close(self, snapshot: bool = True) -> None:
        """Shutdown path: snapshot (fsynced, truncating the WAL) and
        release the log file handle."""
        with self.lock.write():
            if snapshot and self.db is not None:
                if self._writes_since_snapshot:
                    self._write_snapshot()
            self.wal.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_snapshot(self) -> DatabaseState:
        """An isolated state snapshot for one read request: the schema
        and rule tuple are immutable (shared), the EDB is copied with
        its indexes.  Taken under the read lock; evaluated outside it."""
        with self.lock.read():
            return self._copy_state()

    def _copy_state(self) -> DatabaseState:
        state = self.db.state
        return DatabaseState(
            state.schema, state.edb.copy(), tuple(state.rules)
        )

    def materialized(self, semantics: Semantics,
                     guard: ResourceGuard | None = None) -> Materialized:
        """The instance at the current ``applied_seq`` under
        ``semantics``.

        A hit needs the entry at the current seq, filled under limits
        no tighter than ``guard``'s (:meth:`Materialized.covers`); it
        costs one guard check (cancellation, timeout) and no
        evaluation.  A miss evaluates a :meth:`read_snapshot`-style
        copy outside the lock with a fresh oid generator, exactly like
        an uncached read, and keeps the result only if no write
        committed meanwhile; a budget breach raises and keeps
        nothing."""
        limits = _guard_limits(guard)
        with self.lock.read():
            seq = self.applied_seq
            held = self._materialized.get(semantics)
            if held is None or held.seq != seq or not held.covers(limits):
                state = self._copy_state()
                held = None
        if self.metrics is not None:
            with self._materialized_lock:  # inc is read-modify-write
                self.metrics.inc(
                    "server_read_cache_misses" if held is None
                    else "server_read_cache_hits",
                    (("db", self.name),),
                )
        if held is not None:
            if guard is not None:
                guard.check_iteration()
            return held
        instance = materialize(
            state, semantics, EvalConfig(guard=guard), OidGenerator()
        )
        fresh = Materialized(
            seq, limits, state.schema, state.denials(), instance
        )
        with self._materialized_lock:
            if self.applied_seq == seq:
                self._materialized[semantics] = fresh
        return fresh

    def fingerprints(self) -> dict[str, str]:
        with self.lock.read():
            return dict(self._fingerprints)

    def info(self) -> dict:
        with self.lock.read():
            state = self.db.state
            return {
                "name": self.name,
                "facts": state.edb.count(),
                "rules": len(state.rules),
                "applied_seq": self.applied_seq,
                "recovered_records": self.recovered_records,
                "snapshot_failures": self.snapshot_failures,
                "fingerprints": dict(self._fingerprints),
            }

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(self, module_source: str, mode: Mode,
              semantics: Semantics | None = None,
              config: EvalConfig | None = None,
              module_name: str = "") -> tuple[ApplicationResult, int]:
        """One transactional, durable write.  Returns the application
        result and the committed WAL sequence number.

        Commit protocol: execute under the Savepoint (any failure rolls
        the in-memory state back, fingerprint-verified), then append to
        the WAL (the commit point — on append failure the in-memory
        advance is abandoned and the oid generator restored), then
        advance the in-memory state, hold the new instance and maybe
        snapshot.  The held entry of ``semantics`` is the base an
        insert-only write extends (:meth:`_base`), and the last
        commit's ``post`` fingerprints are the savepoint's and the
        prior the new ``post`` is carried from; each committed write
        counts in ``server_writes{db,path}``."""
        sem = semantics or self.semantics
        module = Module.from_source(module_source, name=module_name)
        limits = _guard_limits(config.guard if config is not None else None)
        with self.lock.write():
            oid_next_before = self.db.oidgen.next_number
            pre = self.db.state
            result = apply_module(
                self.db.state, module, mode,
                semantics=sem, config=config,
                oidgen=self.db.oidgen, check_initial=False,
                base=self._base(sem, limits),
                fingerprints=self._fingerprints,
            )
            if mode is Mode.RIDI:
                # rule- and data-invariant: a pure query, no state
                # change, nothing to log
                return result, self.applied_seq
            record = make_record(
                self.applied_seq + 1, "apply",
                module=module_source,
                module_name=module_name,
                mode=mode.value,
                semantics=sem.value,
                oid_next=oid_next_before,
                post=state_fingerprints(
                    result.state, prior=(pre, self._fingerprints)),
            )
            try:
                self.wal.append(record)
            except BaseException:
                # the write never committed: abandon the new state and
                # rewind the oids it consumed (nothing else references
                # them — the old state is still current)
                self.db.oidgen.restore(oid_next_before)
                raise
            self.applied_seq += 1
            self.db.state = result.state
            self.db._instance_cache = None
            self._fingerprints = record["post"]
            self._hold(sem, limits, result)
            if self.metrics is not None:
                # writes are serialized by the write lock
                self.metrics.inc("server_writes", (
                    ("db", self.name),
                    ("path", "extend" if result.extended else "full"),
                ))
            self._writes_since_snapshot += 1
            if self._writes_since_snapshot >= self.snapshot_interval:
                try:
                    self._write_snapshot()
                except (OSError, StorageError, RuntimeError):
                    # the write IS durable (it is in the WAL); a failed
                    # snapshot rewrite degrades gracefully to a longer
                    # replay on the next startup
                    self.snapshot_failures += 1
            return result, self.applied_seq

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _base(self, semantics: Semantics,
              limits: tuple[int | None, ...]) -> FactSet | None:
        """The instance a write under ``limits`` may extend: the held
        entry at the current seq, checked, filled under limits no
        looser than the write's.  Called under the write lock."""
        held = self._materialized.get(semantics)
        if held is not None and held.seq == self.applied_seq \
                and held.checked and held.covers(limits):
            return held.instance
        return None

    def _commit_loaded(self) -> None:
        """Hash the state just created or loaded: the one full EDB
        digest the chain of later writes starts from."""
        self._fingerprints = state_fingerprints(self.db.state)

    def _hold(self, semantics: Semantics, limits: tuple[int | None, ...],
              result: ApplicationResult) -> None:
        """Keep a committed write's instance as the entry of the new
        seq.  Only when the program invents no oids: the instance then
        equals a fresh-generator read, whatever generator it drew."""
        if result.invents_oids:
            return
        entry = Materialized(
            self.applied_seq, limits, result.state.schema,
            result.state.denials(), result.instance, checked=True,
        )
        with self._materialized_lock:
            self._materialized[semantics] = entry

    def _replay(self, record: dict) -> None:
        if record.get("kind") != "apply":
            raise StorageError(
                f"write-ahead log {self.wal_path}: unknown record kind"
                f" {record.get('kind')!r}"
            )
        module = Module.from_source(
            record["module"], name=record.get("module_name", "")
        )
        self.db.oidgen.restore(max(1, int(record["oid_next"])))
        semantics = Semantics(record["semantics"])
        limits = _guard_limits(None)
        pre = self.db.state
        try:
            result = apply_module(
                self.db.state, module, Mode(record["mode"]),
                semantics=semantics,
                oidgen=self.db.oidgen, check_initial=False,
                base=self._base(semantics, limits),
                fingerprints=self._fingerprints,
            )
        except LogresError as exc:
            raise StorageError(
                f"write-ahead log {self.wal_path}: replaying committed"
                f" record {record['seq']} failed: {exc}"
            ) from exc
        post = state_fingerprints(
            result.state, prior=(pre, self._fingerprints))
        # a v1 record holds the sorted-JSON hash of the whole EDB; the
        # digest chain carries on underneath it
        checked = post if record["version"] != 1 else {
            **post, "edb": _v1_edb_fingerprint(result.state.edb)}
        recorded = record.get("post") or {}
        if checked != recorded:
            drifted = sorted(
                k for k in checked if checked[k] != recorded.get(k)
            )
            raise StorageError(
                f"write-ahead log {self.wal_path}: record"
                f" {record['seq']} replay diverged on"
                f" {', '.join(drifted)} (fingerprint mismatch)"
            )
        self.db.state = result.state
        self.db._instance_cache = None
        self.applied_seq = int(record["seq"])
        self._fingerprints = post
        self._hold(semantics, limits, result)

    def _write_snapshot(self) -> None:
        """Atomic snapshot rewrite carrying the covered WAL position.

        The payload is the format-v2 state (checksum over the body, so
        :func:`load_state` verifies it unchanged) plus two envelope
        fields outside the checksummed body: ``wal_seq`` and
        ``oid_next``."""
        if FAULTS.enabled:
            FAULTS.fire("server.snapshot")
        state = self.db.state
        atomic_write_text(self.snapshot_path, iter_state_text(
            state.schema, state.edb, Program(state.rules),
            wal_seq=self.applied_seq,
            oid_next=self.db.oidgen.next_number,
        ))
        self.wal.truncate(up_to_seq=self.applied_seq)
        self._writes_since_snapshot = 0


def _read_state_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise StorageError(
            f"cannot read database snapshot {path}: {exc}"
        ) from exc


class DatabaseRegistry:
    """Every named database under one data directory."""

    def __init__(self, data_dir: str, snapshot_interval: int = 16,
                 semantics: Semantics = Semantics.INFLATIONARY,
                 metrics=None):
        self.data_dir = os.fspath(data_dir)
        self.snapshot_interval = snapshot_interval
        self.semantics = semantics
        self.metrics = metrics
        self._lock = threading.Lock()
        self._databases: dict[str, ManagedDatabase] = {}

    def open_all(self) -> list[str]:
        """Discover and recover every ``*.state.json`` in the data
        directory; returns the recovered names."""
        os.makedirs(self.data_dir, exist_ok=True)
        names = sorted(
            entry[: -len(SNAPSHOT_SUFFIX)]
            for entry in os.listdir(self.data_dir)
            if entry.endswith(SNAPSHOT_SUFFIX)
        )
        for name in names:
            self.get(name)
        return names

    def get(self, name: str) -> ManagedDatabase:
        validate_name(name)
        with self._lock:
            managed = self._databases.get(name)
            if managed is not None:
                return managed
            managed = ManagedDatabase(
                name, self.data_dir,
                snapshot_interval=self.snapshot_interval,
                semantics=self.semantics, metrics=self.metrics,
            )
            if not managed.exists:
                raise KeyError(name)
            # registered before the (possibly slow) recovery so a
            # concurrent get() waits on the same object's lock
            self._databases[name] = managed
        with managed.lock.write():
            if managed.db is None:
                managed.open()
        return managed

    def create(self, name: str, source: str) -> ManagedDatabase:
        validate_name(name)
        os.makedirs(self.data_dir, exist_ok=True)
        with self._lock:
            if name in self._databases or os.path.exists(
                os.path.join(self.data_dir, name + SNAPSHOT_SUFFIX)
            ):
                raise StorageError(
                    f"database {name!r} already exists"
                )
            managed = ManagedDatabase(
                name, self.data_dir,
                snapshot_interval=self.snapshot_interval,
                semantics=self.semantics, metrics=self.metrics,
            )
            self._databases[name] = managed
        try:
            with managed.lock.write():
                managed.create(source)
        except BaseException:
            with self._lock:
                self._databases.pop(name, None)
            raise
        return managed

    def names(self) -> list[str]:
        with self._lock:
            loaded = set(self._databases)
        on_disk = set()
        if os.path.isdir(self.data_dir):
            on_disk = {
                entry[: -len(SNAPSHOT_SUFFIX)]
                for entry in os.listdir(self.data_dir)
                if entry.endswith(SNAPSHOT_SUFFIX)
            }
        return sorted(loaded | on_disk)

    def close_all(self) -> None:
        """Drain path: snapshot + fsync every open database."""
        with self._lock:
            databases = list(self._databases.values())
        for managed in databases:
            managed.close(snapshot=True)

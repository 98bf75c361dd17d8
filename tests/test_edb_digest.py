"""The additive EDB digest and the WAL v2 records that carry it.

The EDB component of ``state_fingerprints`` is the sum, modulo 2**256,
of the SHA-256 of each fact's canonical JSON.  A served write carries
it forward from its delta (``E1 − E0`` added, ``E0 − E1`` subtracted)
instead of hashing the whole EDB.  The properties:

* the carried digest equals a from-scratch one for any pair of states;
* on seeded random write sequences (inserts, deletions, o-value
  overwrites, RADV/RDDV/RIDI, rejected and rolled-back writes, failed
  log appends) the WAL ``post``, the live fingerprints and a
  from-scratch ``state_fingerprints`` agree at every seq, and again
  after reopening;
* a v1 log written before the digest (``tests/fixtures/wal_v1``)
  still replays and verifies; tampering with a v1 ``post.edb`` is still
  caught, and an unknown record version is still refused.

The fixture is a snapshot at seq 2 (two parents, two ``node`` objects)
plus five v1 records: a deletion of ``parent(par "bea", ...)``, an
o-value overwrite of node ``n1`` to ``n9``, a RADV adding
``parent(par X, chil "root") <- node(self N, label X)``, an insert of
``parent(par "eve", chil "ada")`` and a RDDV removing that rule again.
"""

import hashlib
import json
import random
import shutil
from pathlib import Path

import pytest

from repro import parse_source
from repro.engine import Semantics
from repro.errors import LogresError, StorageError
from repro.modules.module import Mode
from repro.modules.state import DatabaseState
from repro.modules.txn import _v1_edb_fingerprint, state_fingerprints
from repro.server.registry import ManagedDatabase
from repro.server.wal import WriteAheadLog
from repro.storage.factset import FactSet
from repro.storage.persist import encode_factset, state_checksum
from repro.testing import FAULTS
from repro.testing.faults import InjectedFault
from repro.values import Oid, SetValue, TupleValue
from tests.test_write_path import LABELS, PROGRAMS, _random_write

FIXTURE = Path(__file__).parent / "fixtures" / "wal_v1"

SCHEMA = parse_source("""
classes
  node = (label: string).
associations
  edge = (a: string, b: string).
""").schema()


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


def _independent_digest(edb: FactSet) -> str:
    """The digest by its definition, from the whole-tree encoding."""
    total = 0
    for entry in encode_factset(edb):
        text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        total += int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest(), "big")
    return format(total % (1 << 256), "064x")


def _random_edb(rng: random.Random) -> FactSet:
    edb = FactSet()
    for _ in range(rng.randrange(12)):
        if rng.random() < 0.4:
            edb.add_object("node", Oid(rng.randrange(1, 6)), TupleValue(
                label=f"n{rng.randrange(3)}"))
        else:
            edb.add_association("edge", TupleValue(
                a=f"v{rng.randrange(4)}", b=SetValue([rng.randrange(3)])))
    return edb


class TestDigest:
    @pytest.mark.parametrize("seed", range(20))
    def test_digest_is_the_sum_of_fact_hashes(self, seed):
        edb = _random_edb(random.Random(seed))
        state = DatabaseState(SCHEMA, edb)
        assert state_fingerprints(state)["edb"] == _independent_digest(edb)
        reordered = FactSet.from_facts(reversed(list(edb.facts())))
        assert state_fingerprints(DatabaseState(SCHEMA, reordered)) == \
            state_fingerprints(state)

    @pytest.mark.parametrize("seed", range(40))
    def test_carried_digest_equals_a_fresh_one(self, seed):
        """Any pair of states: inserts, deletions and o-value
        overwrites (the ``node`` oids collide) in one step."""
        rng = random.Random(seed)
        pre = DatabaseState(SCHEMA, _random_edb(rng))
        post = DatabaseState(SCHEMA, _random_edb(rng))
        carried = state_fingerprints(post, (pre, state_fingerprints(pre)))
        assert carried == state_fingerprints(post)

    def test_empty_edb(self):
        state = DatabaseState(SCHEMA)
        assert state_fingerprints(state)["edb"] == "0" * 64


def _outcome(call):
    try:
        return "ok", call()
    except (LogresError, OSError, InjectedFault) as exc:
        return type(exc).__name__, exc


def _write(rng: random.Random, managed: ManagedDatabase) -> tuple[str, str]:
    """A random write of ``test_write_path``, or one aimed at the live
    ``node`` objects: a fresh object, or an o-value overwrite of one."""
    labels = sorted(f.value["label"]
                    for f in managed.db.state.edb.facts_of("node"))
    kind = rng.random()
    if kind < 0.1:
        return "RIDV", f'rules\n  node(label "{rng.choice(LABELS)}").'
    if labels and kind < 0.25:
        return "RIDV", (f'rules\n  node(self N, label "{rng.choice(LABELS)}")'
                        f' <- node(self N, label "{rng.choice(labels)}").')
    return _random_write(rng)


def _assert_agree(managed: ManagedDatabase) -> dict[str, str]:
    live = managed.fingerprints()
    assert live == state_fingerprints(managed.db.state)
    return live


def _assert_reopens(directory, managed: ManagedDatabase) -> None:
    twin = ManagedDatabase("db", str(directory))
    twin.open()
    try:
        assert twin.applied_seq == managed.applied_seq
        assert _assert_agree(twin) == managed.fingerprints()
    finally:
        twin.wal.close()


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_incremental_digest_equals_a_fresh_one_at_every_seq(tmp_path,
                                                            program):
    seen = set()
    for seed in range(3):
        directory = tmp_path / str(seed)
        directory.mkdir()
        managed = ManagedDatabase("db", str(directory),
                                  snapshot_interval=7)
        managed.create(PROGRAMS[program])
        rng = random.Random(seed)
        for step in range(30):
            mode_name, source = _write(rng, managed)
            semantics = rng.choices(list(Semantics), [6, 3, 1])[0]
            fault = rng.choice([None] * 6 + ["module.finalize",
                                             "server.wal.append"])
            pre = managed.db.state
            before = _assert_agree(managed)
            seq = managed.applied_seq

            def write():
                return managed.apply(source, Mode(mode_name),
                                     semantics=semantics)

            if fault is None:
                got, _ = _outcome(write)
            else:
                action = "error" if fault == "module.finalize" \
                    else "io-error"
                with FAULTS.inject(fault, action=action):
                    got, _ = _outcome(write)
            context = (program, seed, step, mode_name, source, fault)
            after = _assert_agree(managed)
            if managed.applied_seq == seq:
                assert after == before, context
                seen.add(mode_name if got == "ok" else fault or "rejected")
                continue
            records = managed.wal.records(after_seq=seq)
            if records:  # else this write's snapshot truncated the log
                assert records[-1]["version"] == 2
                assert records[-1]["post"] == after, context
            post = managed.db.state
            removed = pre.edb.minus(post.edb)
            added = post.edb.minus(pre.edb)
            seen.add(mode_name)
            if removed.count():
                seen.add("deletion")
            if any(f.oid is not None and added.has_oid(f.pred, f.oid)
                   for f in removed.facts()):
                seen.add("overwrite")
            if step % 5 == 4:
                _assert_reopens(directory, managed)
        _assert_reopens(directory, managed)
        managed.close()
        _assert_reopens(directory, managed)
    assert {"RIDV", "RADV", "RDDV", "RIDI", "deletion", "overwrite",
            "rejected", "module.finalize", "server.wal.append"} <= seen, seen


# ----------------------------------------------------------------------
# WAL v1 compatibility
# ----------------------------------------------------------------------
@pytest.fixture
def legacy(tmp_path):
    for path in FIXTURE.iterdir():
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


def _open_legacy(directory) -> ManagedDatabase:
    managed = ManagedDatabase("legacy", str(directory))
    managed.open()
    return managed


def _rewrite_records(path: Path, edit) -> None:
    """Apply ``edit`` to each record body and re-seal its checksum, so
    only the edited field is wrong."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("checksum")
        edit(record)
        lines.append(json.dumps(
            {**record, "checksum": state_checksum(record)}, sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestWalV1:
    def test_fixture_is_a_v1_log_with_a_deletion_and_an_overwrite(self):
        records = WriteAheadLog(FIXTURE / "legacy.wal.jsonl").records()
        assert [r["version"] for r in records] == [1] * 5
        assert [r["seq"] for r in records] == [3, 4, 5, 6, 7]
        assert "~parent" in records[0]["module"]
        assert 'label "n9"' in records[1]["module"]

    def test_v1_log_replays_and_verifies(self, legacy):
        managed = _open_legacy(legacy)
        try:
            assert managed.applied_seq == 7
            assert managed.recovered_records == 5
            live = _assert_agree(managed)
            assert len(live["edb"]) == 64
            last = WriteAheadLog(legacy / "legacy.wal.jsonl").records()[-1]
            assert last["post"]["edb"] == _v1_edb_fingerprint(
                managed.db.state.edb)
            assert {k: v for k, v in last["post"].items() if k != "edb"} \
                == {k: v for k, v in live.items() if k != "edb"}
            labels = sorted(f.value["label"]
                            for f in managed.db.state.edb.facts_of("node"))
            assert labels == ["n2", "n9"]
            # a new write appends a v2 record after the v1 ones
            managed.apply('rules\n  parent(par "fay", chil "eve").',
                          Mode.RIDV)
            after = managed.fingerprints()
        finally:
            managed.wal.close()
        records = WriteAheadLog(legacy / "legacy.wal.jsonl").records()
        assert [r["version"] for r in records] == [1] * 5 + [2]
        assert records[-1]["post"] == after
        reopened = _open_legacy(legacy)
        try:
            assert reopened.applied_seq == 8
            assert _assert_agree(reopened) == after
        finally:
            reopened.wal.close()

    def test_tampered_v1_post_edb_is_refused(self, legacy):
        def tamper(record):
            if record["seq"] == 4:
                record["post"]["edb"] = "0" * 16

        _rewrite_records(legacy / "legacy.wal.jsonl", tamper)
        with pytest.raises(StorageError,
                           match="record 4 replay diverged on edb"):
            _open_legacy(legacy)

    @pytest.mark.parametrize("seq", [5, 7])  # 7: the final record
    def test_unknown_version_is_refused(self, legacy, seq):
        def future(record):
            if record["seq"] == seq:
                record["version"] = 3

        _rewrite_records(legacy / "legacy.wal.jsonl", future)
        with pytest.raises(StorageError,
                           match="unsupported WAL record version 3"):
            _open_legacy(legacy)

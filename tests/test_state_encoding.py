"""The streamed state encodings equal the whole-tree ones they replace.

``iter_state_text`` renders a state one EDB chunk at a time and the v1
WAL EDB fingerprint hashes the EDB one fact at a time; both must
produce exactly the text and hashes of encoding the whole JSON tree,
because snapshots, v1 WAL ``post`` fingerprints and checksums written
by either must verify under the other.  The served write path hashes
only each write's delta once the database is open.
"""

import json
import random

import pytest

from repro import parse_source
from repro.language.ast import Program
from repro.modules.module import Mode
from repro.modules.state import DatabaseState
from repro.modules.txn import (
    Savepoint,
    _v1_edb_fingerprint,
    state_fingerprints,
)
from repro.observability.report import fingerprint
from repro.server.registry import ManagedDatabase
from repro.storage import FactSet, dumps_state, loads_state
from repro.storage.persist import (
    atomic_write_text,
    encode_factset,
    encode_program,
    encode_schema,
    encode_value,
    iter_state_text,
    state_checksum,
)
from repro.values import (
    MultisetValue,
    Oid,
    SequenceValue,
    SetValue,
    TupleValue,
)

SOURCE = """
classes
  person = (name: string, tag: string).
associations
  knows = (a: string, b: string).
  odd = (v: string, w: integer).
rules
  knows(a X, b Y) <- knows(a Y, b X).
"""


def _tree_entries(facts: FactSet) -> list:
    out = []
    for fact in facts.facts():
        entry = {"pred": fact.pred, "value": encode_value(fact.value)}
        if fact.oid is not None:
            entry["oid"] = fact.oid.number
        out.append(entry)
    out.sort(key=json.dumps)
    return out


def _tree_text(schema, edb, program, **envelope) -> str:
    body = {"schema": encode_schema(schema), "edb": _tree_entries(edb),
            "program": encode_program(program)}
    payload = {"version": 2, "checksum": state_checksum(body), **body,
               **envelope}
    return json.dumps(payload, indent=1, sort_keys=True)


def _state(count: int, seed: int = 0) -> DatabaseState:
    unit = parse_source(SOURCE)
    rng = random.Random(seed)
    edb = FactSet()
    for i in range(count):
        kind = i % 3
        if kind == 0:
            edb.add_object("person", Oid(i + 1), TupleValue(
                name=f"p{rng.randrange(10 ** 6)}", tag="é\n\"q\\ ☃"))
        elif kind == 1:
            edb.add_association("knows", TupleValue(
                a=f"k{rng.randrange(10 ** 6)}", b=f"k{i}"))
        else:
            edb.add_association("odd", TupleValue(
                v="\t", w=-i, s=SetValue([i, "x"]), r=2.5,
                m=MultisetValue(["a", "a", i]), q=SequenceValue([3, 1]),
                t=TupleValue(o=Oid(i), flag=True)))
    return DatabaseState(unit.schema(), edb, tuple(unit.rules))


@pytest.mark.parametrize("count", [0, 1, 7, 255, 256, 257, 700])
def test_state_text_equals_the_tree_encoding(count):
    state = _state(count, seed=count)
    program = Program(state.rules)
    assert dumps_state(state.schema, state.edb, program) == _tree_text(
        state.schema, state.edb, program)
    streamed = "".join(iter_state_text(
        state.schema, state.edb, program, wal_seq=9, oid_next=41))
    assert streamed == _tree_text(state.schema, state.edb, program,
                                  wal_seq=9, oid_next=41)
    schema, edb, _ = loads_state(streamed)
    assert edb == state.edb


@pytest.mark.parametrize("count", [0, 1, 300])
def test_edb_fingerprint_equals_the_tree_hash(count):
    state = _state(count, seed=count + 1)
    assert encode_factset(state.edb) == _tree_entries(state.edb)
    tree = fingerprint(json.dumps(_tree_entries(state.edb), sort_keys=True,
                                  separators=(",", ":")))
    assert _v1_edb_fingerprint(state.edb) == tree


def test_atomic_write_takes_pieces(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_text(path, iter(["[1", ",2", "]"]))
    assert path.read_text(encoding="utf-8") == "[1,2]"


def test_failing_pieces_leave_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old", encoding="utf-8")

    def pieces():
        yield "new"
        raise RuntimeError("mid-write")

    with pytest.raises(RuntimeError):
        atomic_write_text(path, pieces())
    assert path.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_savepoint_takes_known_fingerprints():
    state = _state(10)
    known = state_fingerprints(state)
    sp = Savepoint(state, fingerprints=known)
    state.edb.add_association("knows", TupleValue(a="new", b="fact"))
    sp.rollback()
    assert state_fingerprints(state) == known


def test_a_write_hashes_the_edb_once(tmp_path, monkeypatch):
    """``create`` and ``open`` hash the EDB in full once; after that a
    write computes its fingerprints once, carried from the committed
    ones, hashing only the facts it changed, and info reads hash
    nothing."""
    import repro.modules.txn as txn
    import repro.server.registry as registry

    managed = ManagedDatabase("db", str(tmp_path))
    managed.create(SOURCE)
    calls = []
    hashed = []
    real = txn.state_fingerprints
    real_sum = txn._digest_sum

    def counting(state, prior=None):
        calls.append((state, prior))
        return real(state, prior)

    def counting_sum(facts):
        facts = list(facts)
        hashed.extend(facts)
        return real_sum(facts)

    monkeypatch.setattr(txn, "state_fingerprints", counting)
    monkeypatch.setattr(registry, "state_fingerprints", counting)
    monkeypatch.setattr(txn, "_digest_sum", counting_sum)
    fact = 'rules\n  knows(a "{}", b "z").'

    def write(name):
        calls.clear()
        hashed.clear()
        before = managed.db.state
        managed.apply(fact.format(name), Mode.RIDV)
        assert [state for state, _ in calls] == [managed.db.state]
        assert calls[0][1][0] is before  # carried, not from scratch
        assert len(hashed) == 1  # the one inserted fact

    for name in ("first", "second", "third"):
        write(name)
    calls.clear()
    assert managed.fingerprints() == real(managed.db.state)
    assert managed.info()["fingerprints"] == real(managed.db.state)
    assert calls == []
    managed.close()  # snapshot: the log is empty

    reopened = ManagedDatabase("db", str(tmp_path))
    hashed.clear()
    reopened.open()
    assert len(hashed) == managed.db.state.edb.count() == 3
    managed = reopened
    write("fourth")
    assert managed.fingerprints() == real(managed.db.state)
    managed.close()

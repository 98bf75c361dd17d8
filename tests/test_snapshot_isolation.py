"""Snapshot isolation: readers never observe uncommitted state.

The server's read path takes a ``FactSet.copy()`` snapshot under the
read lock and evaluates outside it, except for reads of the held
instance, which answer under the read lock because an insert-only
write extends that instance in place under the write lock
(``docs/SERVE.md``).  The properties: no reader snapshot — whenever
taken, however long held — ever reflects a write that failed
(Savepoint rollback), was never WAL-committed, or happened *after* the
snapshot was taken; and every answer from the held instance is the
answer at some committed ``applied_seq``.
"""

import threading

import pytest

from repro.modules.module import Mode
from repro.modules.txn import state_fingerprints
from repro.server.registry import DatabaseRegistry
from repro.testing import FAULTS

SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
"""


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


def make_db(tmp_path):
    registry = DatabaseRegistry(tmp_path, snapshot_interval=100)
    managed = registry.create("db", SOURCE)
    managed.apply('rules\n  parent(par "a", chil "b").', Mode.RIDV)
    return managed


class TestSingleThreaded:
    def test_snapshot_survives_rolled_back_write(self, tmp_path):
        managed = make_db(tmp_path)
        snap = managed.read_snapshot()
        count = snap.edb.count()
        with FAULTS.inject("module.finalize", action="error"):
            with pytest.raises(RuntimeError):
                managed.apply(
                    'rules\n  parent(par "x1", chil "x2").'
                    '\n  parent(par "x3", chil "x4").'
                    '\n  parent(par "x5", chil "x6").',
                    Mode.RIDV,
                )
        # neither the pre-taken snapshot nor a fresh one moved
        assert snap.edb.count() == count
        assert managed.read_snapshot().edb.count() == count

    def test_snapshot_survives_failed_commit(self, tmp_path):
        """A write that executed but never reached the WAL (the commit
        point) must stay invisible."""
        managed = make_db(tmp_path)
        prints = state_fingerprints(managed.read_snapshot())
        with FAULTS.inject("server.wal.append", action="io-error"):
            with pytest.raises(OSError):
                managed.apply(
                    'rules\n  parent(par "y1", chil "y2").', Mode.RIDV
                )
        assert state_fingerprints(managed.read_snapshot()) == prints

    def test_snapshot_is_immune_to_later_commits(self, tmp_path):
        managed = make_db(tmp_path)
        snap = managed.read_snapshot()
        count = snap.edb.count()
        managed.apply('rules\n  parent(par "z1", chil "z2").', Mode.RIDV)
        assert snap.edb.count() == count           # the copy is frozen
        assert managed.read_snapshot().edb.count() == count + 1

    def test_mutating_a_snapshot_does_not_leak_back(self, tmp_path):
        from repro.values import TupleValue

        managed = make_db(tmp_path)
        snap = managed.read_snapshot()
        snap.edb.add_association(
            "parent", TupleValue(par="rogue", chil="write")
        )
        assert managed.read_snapshot().edb.count() == snap.edb.count() - 1


class TestConcurrentProperty:
    def test_readers_only_ever_see_committed_states(self, tmp_path):
        """Property run: a writer alternates committing and failing
        writes while readers snapshot continuously.  Every observed
        fingerprint must be one of the committed states — the failed
        writes (each of which would add a distinct marker fact) must
        never surface, not even transiently."""
        managed = make_db(tmp_path)
        committed = {state_fingerprints(managed.read_snapshot())["edb"]}
        committed_lock = threading.Lock()
        observed = []
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    snap = managed.read_snapshot()
                    observed.append(state_fingerprints(snap)["edb"])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()
        try:
            for i in range(12):
                if i % 2:
                    # a write destined to fail after executing: its
                    # marker facts must never be observed
                    with FAULTS.inject("module.finalize", action="error"):
                        with pytest.raises(RuntimeError):
                            managed.apply(
                                f'rules\n  parent(par "bad{i}a",'
                                f' chil "bad{i}b").',
                                Mode.RIDV,
                            )
                else:
                    managed.apply(
                        f'rules\n  parent(par "ok{i}", chil "ok{i}x").',
                        Mode.RIDV,
                    )
                    with committed_lock:
                        committed.add(state_fingerprints(
                            managed.read_snapshot()
                        )["edb"])
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
        assert not errors
        assert observed, "readers never got a snapshot"
        rogue = [o for o in observed if o not in committed]
        assert rogue == [], (
            f"{len(rogue)} snapshot(s) observed an uncommitted state"
        )


CHAIN_SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
  <- anc(a X, d X).
"""


class TestInPlaceExtension:
    def test_http_reads_answer_a_committed_seq_while_writes_extend(
            self, tmp_path):
        """Readers ``run`` goals and ``check`` through the HTTP read
        path, which answers from the held instance, while a writer
        commits inserts that extend that very instance in place.
        Every answer equals the reference kernel's at some committed
        ``applied_seq``: never a half-extended instance."""
        import json
        import sys

        from repro.engine import Semantics
        from repro.modules.state import materialize
        from repro.server import ReproServer, ServerConfig
        from repro.server.http import _run_payload
        from repro.server.loadgen import post_json
        from repro.values.oids import OidGenerator
        from tests.kernels import REFERENCE

        app = ReproServer(ServerConfig(port=0, data_dir=str(tmp_path)))
        host, port = app.start()
        threading.Thread(target=app.serve_forever, daemon=True).start()
        base = f"http://{host}:{port}"
        assert post_json(base, "/v1/db/db", {"source": CHAIN_SOURCE})[0] \
            == 201
        managed = app.registry.get("db")
        states = {}

        def write(i):
            status, payload, _ = post_json(base, "/v1/db/db/apply", {
                "module": f'rules\n  parent(par "p{i}", chil "p{i + 1}").',
                "mode": "RIDV"})
            assert status == 200, payload
            # one writer: nothing commits between the reply and this
            states[payload["applied_seq"]] = managed.read_snapshot()

        write(0)
        goals = ['?- anc(a "p0", d X).', '?- anc(a X, d "p9").',
                 '?- parent(par X, chil Y).']
        seen: list[tuple[str, dict]] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(k):
            try:
                while not stop.is_set():
                    goal = goals[k % len(goals)]
                    status, payload, _ = post_json(
                        base, "/v1/db/db/run", {"goal": goal})
                    assert status == 200, payload
                    seen.append((goal, payload))
                    status, payload, _ = post_json(
                        base, "/v1/db/db/check", {})
                    assert status == 200, payload
                    k += 1
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader, args=(k,))
                   for k in range(3)]
        try:
            for thread in readers:
                thread.start()
            for i in range(1, 24):
                write(i)
                stop.wait(0.01)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            app.close()
        assert not errors, errors
        labels = (("db", "db"),)
        assert app.metrics.counter("server_writes",
                                   labels + (("path", "extend"),)) >= 20
        assert app.metrics.counter("server_read_cache_hits", labels) > 0

        def canonical(payload):
            return json.dumps(
                {**payload, "answers": sorted(payload["answers"], key=repr)},
                sort_keys=True)

        allowed = {goal: set() for goal in goals}
        for state in states.values():
            instance = materialize(state, Semantics.INFLATIONARY, REFERENCE,
                                   OidGenerator())
            for goal in goals:
                payload = json.loads(json.dumps(_run_payload(
                    instance, state.schema, {"goal": goal})))
                allowed[goal].add(canonical(payload))
        assert seen
        for goal, payload in seen:
            assert canonical(payload) in allowed[goal], (goal, payload)

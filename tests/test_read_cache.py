"""The served instance: one materialization per ``applied_seq``.

``ManagedDatabase.materialized`` holds the instance of the current
state per semantics, and the persistent-instance reads (``run``
without ``"rules"``, ``check``) answer from it (``docs/SERVE.md``).
The properties:

* every ``run``/``check`` answer equals a fresh reference-kernel
  materialization (``EvalConfig(incremental=False)``) of
  the state at the same ``applied_seq``, across random interleavings
  of committed, rejected, rolled-back and never-logged writes under
  all three semantics;
* readers sharing one held instance from several threads, while a
  writer commits, all see the reference answer of their seq;
* budgets stay exact: a request tighter than the one the instance was
  filled under re-evaluates and reproduces its breach, while equal or
  looser requests answer from the held instance.
"""

import json
import random
import sys
import threading

import pytest

from repro.constraints.checker import ConsistencyChecker
from repro.engine import Semantics
from repro.engine.guards import ResourceGuard
from repro.errors import LogresError
from repro.modules.module import Mode
from repro.modules.state import materialize
from repro.modules.txn import state_fingerprints
from repro.observability import MetricsRegistry
from repro.server import ReproServer, ServerConfig, TenantLimits
from repro.server.http import _answer, _render_answers, _run_payload
from repro.server.loadgen import post_json
from repro.server.registry import (
    DatabaseRegistry,
    Materialized,
    _guard_limits,
)
from repro.testing import FAULTS
from repro.values.oids import OidGenerator
from tests.kernels import REFERENCE

SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
  person = (n: string).
  leaf = (n: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
  person(n X) <- parent(par X, chil Y).
"""

CHAIN = "rules\n" + "\n".join(
    f'  parent(par "p{i}", chil "p{i + 1}").' for i in range(8)
)

#: a stratified-negation rule: inflationary and stratified evaluation
#: disagree on it, so the per-semantics entries really differ
LEAF_RULE = "rules\n  leaf(n Y) <- parent(par X, chil Y), ~person(n Y).\n"
#: a denial the leaf rule can violate under inflationary semantics
DENIAL = "rules\n  <- leaf(n X), person(n X).\n"

#: a class with an oid-inventing rule: one object per person
INVENTING = """
classes
  tag = (n: string).
rules
  tag(self T, n X) <- person(n X).
"""

NAMES = [f"p{i}" for i in range(8)]
DB = "demo"
DB_LABELS = (("db", DB),)


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


def _start(tmp_path, **overrides):
    config = ServerConfig(port=0, data_dir=str(tmp_path), **overrides)
    app = ReproServer(config)
    host, port = app.start()
    threading.Thread(target=app.serve_forever, daemon=True).start()
    base = f"http://{host}:{port}"
    status, _, _ = post_json(base, f"/v1/db/{DB}", {"source": SOURCE})
    assert status == 201
    status, _, _ = post_json(base, f"/v1/db/{DB}/apply",
                             {"module": CHAIN, "mode": "RIDV"})
    assert status == 200
    return app, base


@pytest.fixture
def server(tmp_path):
    app, base = _start(tmp_path)
    yield app, base
    app.close()


def _hits(app) -> float:
    return app.metrics.counter("server_read_cache_hits", DB_LABELS)


def _misses(app) -> float:
    return app.metrics.counter("server_read_cache_misses", DB_LABELS)


def _reference(state, semantics):
    return materialize(state, semantics, REFERENCE, OidGenerator())


def _expected_read(state, op: str, body: dict,
                   semantics: Semantics) -> tuple[int, dict | None]:
    """What ``op`` must answer, from a reference materialization of
    ``state``; ``(status, None)`` when the reference itself fails."""
    try:
        instance = _reference(state, semantics)
    except LogresError:
        return 503, None
    if op == "run":
        payload = _run_payload(instance, state.schema, body)
        return 200, json.loads(json.dumps(payload, sort_keys=True))
    violations = ConsistencyChecker(
        state.schema, state.denials()).check(instance)
    if violations:
        return 409, {"consistent": False,
                     "violations": [v.render() for v in violations]}
    return 200, {"consistent": True, "violations_checked": True}


def _sorted(payload: dict) -> dict:
    """Answer order follows the instance's set iteration order, which
    differs between kernels; the answers themselves may not."""
    if "answers" in payload:
        return {**payload, "answers": sorted(payload["answers"], key=repr)}
    return payload


def _random_write(rng: random.Random) -> tuple[str, str]:
    """``(mode, module source)``: fact inserts and deletions, rule and
    denial additions and removals (with and without running them over
    the EDB), and data-invariant queries."""
    kind = rng.randrange(6)
    if kind == 0:
        facts = "\n".join(
            f'  parent(par "{rng.choice(NAMES)}",'
            f' chil "{rng.choice(NAMES)}").'
            for _ in range(rng.randint(1, 3))
        )
        return "RIDV", "rules\n" + facts
    if kind == 1:
        victim = rng.choice(NAMES)
        return "RIDV", (f'rules\n  ~parent(par "{victim}", chil X)'
                        f' <- parent(par "{victim}", chil X).')
    if kind == 2:
        return rng.choice(["RADV", "RADI"]), rng.choice([LEAF_RULE, DENIAL])
    if kind == 3:
        return rng.choice(["RDDV", "RDDI"]), rng.choice([LEAF_RULE, DENIAL])
    if kind == 4:
        return "RIDI", (f'rules\n  parent(par "{rng.choice(NAMES)}",'
                        f' chil "zz").\ngoal\n  ?- anc(a X, d "zz").')
    return "RIDV", f'rules\n  parent(par "q{rng.randrange(4)}", chil "p0").'


def _assert_entries_committed(managed) -> None:
    """No held entry is ahead of the committed seq, and every entry at
    the committed seq is the reference instance of the committed
    state — an uncommitted write can never be reflected."""
    state = managed.read_snapshot()
    for semantics, held in list(managed._materialized.items()):
        assert held.seq <= managed.applied_seq
        if held.seq == managed.applied_seq:
            assert held.instance == _reference(state, semantics)


class TestInterleavings:
    @pytest.mark.parametrize("seed", range(6))
    def test_reads_match_reference_at_every_seq(self, server, seed):
        app, base = server
        managed = app.registry.get(DB)
        rng = random.Random(7100 + seed)
        committed = managed.applied_seq
        for _ in range(24):
            if rng.random() < 0.4:
                mode, module = _random_write(rng)
                semantics = rng.choice(list(Semantics))
                before = state_fingerprints(managed.read_snapshot())
                fault = rng.choice([None, None, "module.finalize",
                                    "server.wal.append"])
                body = {"module": module, "mode": mode,
                        "semantics": semantics.value}
                if fault is None:
                    status, payload, _ = post_json(
                        base, f"/v1/db/{DB}/apply", body)
                else:
                    action = ("error" if fault == "module.finalize"
                              else "io-error")
                    with FAULTS.inject(fault, action=action):
                        status, payload, _ = post_json(
                            base, f"/v1/db/{DB}/apply", body)
                if status == 200 and mode != "RIDI":
                    committed += 1
                    assert payload["applied_seq"] == committed
                else:
                    # rejected, rolled back, never logged, or a query:
                    # the state and its seq did not move
                    after = state_fingerprints(managed.read_snapshot())
                    assert after == before, (mode, fault, status, payload)
                assert managed.applied_seq == committed
            else:
                op = rng.choice(["run", "check"])
                semantics = rng.choice(list(Semantics))
                body = {"semantics": semantics.value}
                if op == "run" and rng.random() < 0.7:
                    body["goal"] = rng.choice([
                        f'?- anc(a "{rng.choice(NAMES)}", d X).',
                        "?- leaf(n X).",
                        "?- person(n X).",
                    ])
                want_status, want = _expected_read(
                    managed.read_snapshot(), op, body, semantics)
                for _repeat in range(2):  # a miss, then (usually) a hit
                    status, payload, _ = post_json(
                        base, f"/v1/db/{DB}/{op}", body)
                    assert status == want_status, payload
                    if want is not None:
                        assert _sorted(payload) == _sorted(want)
            _assert_entries_committed(managed)
        assert _hits(app) > 0 and _misses(app) > 0

    def test_repeated_read_hits_and_a_write_refills_the_entry(self, server):
        app, base = server
        managed = app.registry.get(DB)
        body = {"goal": '?- anc(a "p0", d X).'}
        post_json(base, f"/v1/db/{DB}/run", body)
        hits, misses = _hits(app), _misses(app)
        status, first, _ = post_json(base, f"/v1/db/{DB}/run", body)
        assert status == 200
        assert (_hits(app), _misses(app)) == (hits + 1, misses)
        # a committed write to an invention-free program leaves its
        # instance as the entry of the new seq: the next read hits and
        # equals the reference answer
        post_json(base, f"/v1/db/{DB}/apply", {
            "module": 'rules\n  parent(par "p8", chil "p9").',
            "mode": "RIDV"})
        status, second, _ = post_json(base, f"/v1/db/{DB}/run", body)
        assert status == 200
        assert (_hits(app), _misses(app)) == (hits + 2, misses)
        assert len(second["answers"]) == len(first["answers"]) + 1
        _, want = _expected_read(managed.read_snapshot(), "run", body,
                                 Semantics.INFLATIONARY)
        assert _sorted(second) == _sorted(want)
        # RIDI changes nothing: the entry stays valid
        post_json(base, f"/v1/db/{DB}/apply", {
            "module": 'rules\n  parent(par "x", chil "y").',
            "mode": "RIDI"})
        post_json(base, f"/v1/db/{DB}/run", body)
        assert (_hits(app), _misses(app)) == (hits + 3, misses)

    def test_a_write_to_an_inventing_program_misses(self, server):
        """A committed instance that drew invented oids from the
        database's generator may differ from a fresh read by oid
        renaming, so it is not kept: the next read misses."""
        app, base = server
        body = {"goal": "?- tag(self T, n X)."}
        status, _, _ = post_json(base, f"/v1/db/{DB}/apply", {
            "module": INVENTING, "mode": "RADV"})
        assert status == 200
        post_json(base, f"/v1/db/{DB}/run", body)
        hits, misses = _hits(app), _misses(app)
        status, first, _ = post_json(base, f"/v1/db/{DB}/run", body)
        assert status == 200
        assert (_hits(app), _misses(app)) == (hits + 1, misses)
        status, _, _ = post_json(base, f"/v1/db/{DB}/apply", {
            "module": 'rules\n  parent(par "p8", chil "p9").',
            "mode": "RIDV"})
        assert status == 200
        status, second, _ = post_json(base, f"/v1/db/{DB}/run", body)
        assert status == 200
        assert (_hits(app), _misses(app)) == (hits + 1, misses + 1)
        assert len(second["answers"]) == len(first["answers"]) + 1

    def test_semantics_are_held_separately(self, server):
        app, base = server
        managed = app.registry.get(DB)
        # RADI adds the rule without running it over the EDB, so the
        # leaf facts stay intensional
        post_json(base, f"/v1/db/{DB}/apply",
                  {"module": LEAF_RULE, "mode": "RADI"})
        post_json(base, f"/v1/db/{DB}/apply", {
            "module": 'rules\n  parent(par "p8", chil "p9").',
            "mode": "RIDV"})
        answers = {}
        for semantics in Semantics:
            status, payload, _ = post_json(
                base, f"/v1/db/{DB}/run",
                {"goal": "?- leaf(n X).", "semantics": semantics.value})
            assert status == 200
            answers[semantics] = payload["answers"]
        assert set(managed._materialized) == set(Semantics)
        # the leaf rule is where inflationary and stratified part ways
        assert answers[Semantics.INFLATIONARY] != \
            answers[Semantics.STRATIFIED]


class TestConcurrentReaders:
    def test_readers_share_one_instance_while_a_writer_commits(
            self, tmp_path):
        metrics = MetricsRegistry()
        registry = DatabaseRegistry(tmp_path, snapshot_interval=1000,
                                    metrics=metrics)
        managed = registry.create("db", SOURCE)
        managed.apply(CHAIN, Mode.RIDV)
        goals = [
            '?- anc(a "p0", d X).',
            '?- anc(a X, d "p6").',
            '?- parent(par X, chil "p3").',
            "?- person(n X).",
        ]
        states = {managed.applied_seq: managed.read_snapshot()}
        seen: list[tuple[int, str, list]] = []
        shared: dict[int, set[int]] = {}
        errors: list[BaseException] = []
        stop = threading.Event()
        start = threading.Barrier(len(goals) + 1)

        def reader(goal):
            try:
                start.wait()
                while not stop.is_set():
                    held = managed.materialized(Semantics.INFLATIONARY)
                    answers = _render_answers(
                        _answer(goal, held.instance, held.schema))
                    seen.append((held.seq, goal, answers))
                    shared.setdefault(held.seq, set()).add(id(held))
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def writer():
            start.wait()
            for i in range(6):
                _, seq = managed.apply(
                    f'rules\n  parent(par "q{i}", chil "p{i}").',
                    Mode.RIDV)
                states[seq] = managed.read_snapshot()
                # let the readers pile onto the fresh seq
                stop.wait(0.02)
            stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave lazy index builds
        try:
            threads = [threading.Thread(target=reader, args=(g,))
                       for g in goals]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            registry.close_all()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert metrics.counter("server_read_cache_hits",
                               (("db", "db"),)) > 0
        expected: dict[tuple[int, str], list] = {}
        for seq, goal, answers in seen:
            if (seq, goal) not in expected:
                state = states[seq]
                reference = _reference(state, Semantics.INFLATIONARY)
                expected[(seq, goal)] = sorted(
                    _render_answers(
                        _answer(goal, reference, state.schema)),
                    key=repr)
            assert sorted(answers, key=repr) == expected[(seq, goal)]
        # several goals were answered at one seq from one held object
        assert any(len(ids) < len(goals) for ids in shared.values())


class TestBudgets:
    @pytest.fixture
    def tight_server(self, tmp_path):
        app, base = _start(tmp_path, tenant_limits={
            "tight": TenantLimits(max_facts=5),
            "quick": TenantLimits(timeout=1e-6),
        })
        yield app, base
        app.close()

    def _warm(self, app, base):
        status, _, _ = post_json(base, f"/v1/db/{DB}/run", {})
        assert status == 200
        status, _, _ = post_json(base, f"/v1/db/{DB}/run", {})
        assert status == 200
        assert _hits(app) >= 1

    @pytest.mark.parametrize("op", ["run", "check"])
    def test_tighter_fact_budget_still_breaches(self, tight_server, op):
        app, base = tight_server
        self._warm(app, base)
        misses = _misses(app)
        status, payload, headers = post_json(
            base, f"/v1/db/{DB}/{op}", {"budgets": {"max_facts": 5}})
        assert status == 503
        assert payload["error"]["code"] == "LG802"
        assert "Retry-After" in headers
        assert _misses(app) == misses + 1

    def test_tiny_timeout_still_breaches_on_a_hit(self, tight_server):
        app, base = tight_server
        self._warm(app, base)
        hits = _hits(app)
        status, payload, _ = post_json(
            base, f"/v1/db/{DB}/run", {"budgets": {"timeout": 1e-6}})
        assert status == 503
        assert payload["error"]["code"] == "LG801"
        assert _hits(app) == hits + 1  # answered from the entry, checked

    @pytest.mark.parametrize("tenant,code", [("tight", "LG802"),
                                             ("quick", "LG801")])
    def test_tighter_tenant_cap_still_breaches(self, tight_server,
                                               tenant, code):
        app, base = tight_server
        self._warm(app, base)
        status, payload, _ = post_json(
            base, f"/v1/db/{DB}/run", {}, tenant=tenant)
        assert status == 503
        assert payload["error"]["code"] == code

    def test_equal_or_looser_budgets_hit(self, tight_server):
        app, base = tight_server
        self._warm(app, base)
        hits, misses = _hits(app), _misses(app)
        config = app.config
        equal = {"max_facts": config.default_max_facts,
                 "max_inventions": config.default_max_inventions}
        status, _, _ = post_json(base, f"/v1/db/{DB}/run",
                                 {"budgets": equal})
        assert status == 200
        assert (_hits(app), _misses(app)) == (hits + 1, misses)
        # an entry filled under a tighter budget serves looser requests
        post_json(base, f"/v1/db/{DB}/apply", {
            "module": 'rules\n  parent(par "p8", chil "p9").',
            "mode": "RIDV"})
        status, _, _ = post_json(base, f"/v1/db/{DB}/check",
                                 {"budgets": {"max_facts": 1000}})
        assert status == 200
        assert _misses(app) == misses + 1
        status, _, _ = post_json(base, f"/v1/db/{DB}/run", {})
        assert status == 200
        assert (_hits(app), _misses(app)) == (hits + 2, misses + 1)

    @pytest.mark.parametrize("held,asked,covered", [
        ((10, 10, None), (10, 10, None), True),
        ((10, 10, None), (11, None, None), True),
        ((10, 10, None), (9, 10, None), False),
        ((10, 10, None), (10, 10, 3), False),
        ((None, 10, None), (10**9, 10, None), False),
    ])
    def test_covers(self, held, asked, covered):
        entry = Materialized(0, held, None, (), None)
        assert entry.covers(asked) is covered

    def test_unset_guard_fields_resolve_to_the_engine_defaults(self):
        """An unguarded run and a guard with only a timeout both run
        under the default fact and invention budgets, so they hold the
        same limits, and an entry filled under them covers exactly
        the requests no tighter than those defaults."""
        defaults = _guard_limits(None)
        assert defaults == (1_000_000, 100_000, None)
        assert _guard_limits(ResourceGuard()) == defaults
        assert _guard_limits(ResourceGuard(timeout=5)) == defaults
        entry = Materialized(0, defaults, None, (), None)
        for guard, covered in [
            (None, True),
            (ResourceGuard(timeout=1e-6), True),
            (ResourceGuard(max_facts=2_000_000), True),
            (ResourceGuard(max_facts=500_000), False),
            (ResourceGuard(max_inventions=50_000), False),
            (ResourceGuard(max_fact_size=3), False),
        ]:
            assert entry.covers(_guard_limits(guard)) is covered, guard

"""The served write path: insert-only writes extend the held instance.

``ManagedDatabase.apply`` hands ``apply_module`` the checked instance of
the current state; an insert-only RIDV write into a monotone program
continues that fixpoint from the inserted facts and checks constraints
on the facts it gained (``docs/SERVE.md``).  Every other write takes
the full path.  The properties, over seeded random write sequences on
programs inside the fragment (positive rules, denials, class-reference
fields) and outside it (negation, isa, oid invention):

* every accept/reject decision and error message equals
  ``apply_module`` without a base, run on a copy of the same state with
  a copy of the oid generator;
* the oid generator, the live state and the WAL ``post`` fingerprints
  match that twin run;
* the held and the served instance equal a reference-kernel
  (``incremental=False, plan=False``) materialization at every seq;
* reopening the directory reproduces the fingerprints, the oid
  generator and the held entry.
"""

import random

import pytest

from repro.engine import EvalConfig, Semantics
from repro.engine.guards import ResourceGuard
from repro.errors import LogresError
from repro.modules.apply import apply_module
from repro.modules.module import Mode, Module
from repro.modules.state import materialize
from repro.modules.txn import state_fingerprints
from repro.observability import MetricsRegistry
from repro.server.registry import DatabaseRegistry, ManagedDatabase
from repro.testing import FAULTS
from repro.testing.faults import InjectedFault
from repro.values.oids import OidGenerator

BASE_SCHEMA = """
classes
  node = (label: string).
  robot = (volts: integer).
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
  owns = (who: string, item: node).
  holder = (who: string, label: string).
  person = (n: string).
  leaf = (n: string).
"""

#: inside the fragment: positive, class-free heads, a denial and a
#: rule joining through a class-reference field
POSITIVE = BASE_SCHEMA + """
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
  holder(who W, label L) <- owns(who W, item N), node(self N, label L).
  <- anc(a X, d X).
"""

#: outside it: stratified negation
NEGATION = POSITIVE + """
  person(n X) <- parent(par X, chil Y).
  leaf(n Y) <- parent(par X, chil Y), ~person(n Y).
"""

#: outside it: an isa edge (the generated propagation rule has a class
#: head)
ISA = BASE_SCHEMA.replace("associations", """  tool = (node, weight: integer).
  tool isa node.
associations""") + """
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""

#: outside it: an oid-inventing rule
INVENTION = POSITIVE + """
  node(self N, label X) <- person(n X).
  person(n X) <- parent(par X, chil Y).
"""

PROGRAMS = {"positive": POSITIVE, "negation": NEGATION, "isa": ISA,
            "invention": INVENTION}

REFERENCE = EvalConfig(incremental=False, plan=False)
NAMES = [f"p{i}" for i in range(6)]
LABELS = [f"n{i}" for i in range(4)]
EXTRA_RULE = "rules\n  person(n X) <- parent(par X, chil Y).\n"
EXTRA_DENIAL = 'rules\n  <- holder(who "w0", label "n3").\n'
LIMITS = dict(max_facts=100_000, max_inventions=10_000)


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


def _random_write(rng: random.Random) -> tuple[str, str]:
    """``(mode, module source)``, weighted toward inserts."""
    kind = rng.randrange(14)
    if kind <= 3:  # parent inserts; a back edge violates the denial
        facts = "\n".join(
            f'  parent(par "{rng.choice(NAMES)}",'
            f' chil "{rng.choice(NAMES)}").'
            for _ in range(rng.randint(1, 3))
        )
        return "RIDV", "rules\n" + facts
    if kind == 4:  # a fresh object (the update rule invents its oid)
        if rng.random() < 0.3:  # a subclass object (isa program only)
            return "RIDV", (f'rules\n  tool(label "{rng.choice(LABELS)}",'
                            f' weight {rng.randrange(3)}).')
        return "RIDV", f'rules\n  node(label "{rng.choice(LABELS)}").'
    if kind == 5:  # references to existing objects
        return "RIDV", (f'rules\n  owns(who "w{rng.randrange(3)}", item N)'
                        f' <- node(self N, label "{rng.choice(LABELS)}").')
    if kind == 6:  # a nil reference inside an association
        return "RIDV", 'rules\n  owns(who "w9", item nil).'
    if kind == 7:  # deletion; may leave references dangling
        if rng.random() < 0.5:
            victim = rng.choice(NAMES)
            return "RIDV", (f'rules\n  ~parent(par "{victim}", chil X)'
                            f' <- parent(par "{victim}", chil X).')
        label = rng.choice(LABELS)
        return "RIDV", (f'rules\n  ~node(self N, label "{label}")'
                        f' <- node(self N, label "{label}").')
    if kind == 8:
        if rng.random() < 0.3:  # an oid shared across two hierarchies
            return "RIDV", (f'rules\n  robot(self N, volts 1) <-'
                            f' node(self N, label "{rng.choice(LABELS)}").')
        # o-value overwrite
        return "RIDV", (f'rules\n  node(self N, label "{rng.choice(LABELS)}")'
                        f' <- node(self N, label "{rng.choice(LABELS)}").')
    if kind == 9:
        return "RADV", rng.choice([EXTRA_RULE, EXTRA_DENIAL])
    if kind == 10:
        return "RDDV", rng.choice([EXTRA_RULE, EXTRA_DENIAL])
    if kind == 11:
        return "RIDI", (f'rules\n  parent(par "{rng.choice(NAMES)}",'
                        f' chil "zz").\ngoal\n  ?- anc(a X, d "zz").')
    if kind == 12:  # an insert under a module-local denial
        return "RIDV", (f'rules\n  parent(par "{rng.choice(NAMES)}",'
                        f' chil "q").\n  <- parent(par X, chil "q"),'
                        f' parent(par "q", chil X).')
    return "RIDV", f'rules\n  parent(par "q{rng.randrange(3)}", chil "p0").'


def _config() -> EvalConfig:
    return EvalConfig(guard=ResourceGuard(**LIMITS))


def _outcome(call):
    try:
        return "ok", call()
    except (LogresError, OSError, InjectedFault) as exc:
        return type(exc).__name__, str(exc)


def _reference(state, semantics):
    return materialize(state, semantics, REFERENCE, OidGenerator())


def _same_instance(got, state, semantics, invents: bool) -> None:
    want = _reference(state, semantics)
    if invents:  # equal up to the renaming of invented oids
        assert got.to_instance().isomorphic_to(want.to_instance())
    else:
        assert got == want


def _twin(managed: ManagedDatabase, module_source: str, mode: Mode,
          semantics: Semantics, fault: str | None):
    """``apply_module`` without a base on a copy of the state and of
    the oid generator: the outcome the served write must reproduce."""
    state = managed.read_snapshot()
    oidgen = OidGenerator()
    oidgen.restore(managed.db.oidgen.next_number)
    module = Module.from_source(module_source)

    def call():
        return apply_module(state, module, mode, semantics=semantics,
                            config=_config(), oidgen=oidgen,
                            check_initial=False)

    if fault == "module.finalize":
        with FAULTS.inject(fault, action="error"):
            outcome = _outcome(call)
    else:
        outcome = _outcome(call)
    return outcome, oidgen


def _assert_reopens(directory, managed: ManagedDatabase,
                    committed_oid: int) -> None:
    """Recovery reproduces the committed state, the generator position
    of the last commit (RIDI queries draw oids but log nothing) and the
    held entry."""
    twin = ManagedDatabase("db", directory)
    twin.open()
    try:
        assert twin.applied_seq == managed.applied_seq
        assert state_fingerprints(twin.db.state) == \
            state_fingerprints(managed.db.state)
        assert twin.db.oidgen.next_number == committed_oid
        state = twin.read_snapshot()
        for semantics, held in twin._materialized.items():
            assert held.checked and held.seq <= twin.applied_seq
            if held.seq < twin.applied_seq:
                continue  # a later record ran under other semantics
            _same_instance(held.instance, state, semantics, False)
            live = managed._materialized.get(semantics)
            if live is not None and live.seq == managed.applied_seq:
                assert live.instance == held.instance
    finally:
        twin.wal.close()


def _run_sequence(tmp_path, program: str, seed: int, steps: int,
                  snapshot_interval: int = 1000) -> MetricsRegistry:
    metrics = MetricsRegistry()
    registry = DatabaseRegistry(tmp_path, snapshot_interval=snapshot_interval,
                                metrics=metrics)
    managed = registry.create("db", PROGRAMS[program])
    invents = program == "invention"
    rng = random.Random(seed)
    committed_oid = managed.db.oidgen.next_number
    # mostly the extendable semantics, so the extend path gets exercised
    weights = [6, 3, 1]
    try:
        for step in range(steps):
            mode_name, source = _random_write(rng)
            mode = Mode(mode_name)
            semantics = rng.choices(list(Semantics), weights)[0]
            fault = rng.choice([None] * 6 + ["module.finalize",
                                             "server.wal.append"])
            seq_before = managed.applied_seq
            fingerprints_before = state_fingerprints(managed.db.state)
            oid_before = managed.db.oidgen.next_number
            (want, want_value), twin_gen = _twin(managed, source, mode,
                                                 semantics, fault)

            def write():
                return managed.apply(source, mode, semantics=semantics,
                                     config=_config())

            if fault is None:
                got, got_value = _outcome(write)
            else:
                action = "error" if fault == "module.finalize" \
                    else "io-error"
                with FAULTS.inject(fault, action=action):
                    got, got_value = _outcome(write)
            context = (program, seed, step, mode_name, source,
                       semantics, fault)
            if fault == "server.wal.append" and want == "ok" \
                    and mode is not Mode.RIDI:
                assert got == "OSError", context
            else:
                assert got == want, (context, got_value, want_value)
                if got != "ok":
                    assert got_value == want_value, context
            committed = got == "ok" and mode is not Mode.RIDI
            if committed:
                result, seq = got_value
                assert seq == seq_before + 1
                assert managed.db.oidgen.next_number == \
                    twin_gen.next_number, context
                post = state_fingerprints(want_value.state)
                assert state_fingerprints(managed.db.state) == post
                records = managed.wal.records(after_seq=seq_before)
                if records:
                    assert records[-1]["seq"] == seq
                    assert records[-1]["post"] == post
                else:  # the write's snapshot truncated the log
                    assert managed._writes_since_snapshot == 0
                assert result.instance == want_value.instance or invents
                committed_oid = managed.db.oidgen.next_number
            else:
                assert managed.applied_seq == seq_before
                # a rollback rewinds the generator; an uncommitted log
                # append rewinds it too; a RIDI query keeps what it drew
                assert managed.db.oidgen.next_number == (
                    oid_before if got == "OSError"
                    else twin_gen.next_number
                ), context
                assert state_fingerprints(managed.db.state) == \
                    fingerprints_before
            # held entries are never ahead of the committed seq, and
            # the ones at it are the instance of the committed state
            state = managed.read_snapshot()
            for sem, held in list(managed._materialized.items()):
                assert held.seq <= managed.applied_seq
                if held.seq == managed.applied_seq:
                    _same_instance(held.instance, state, sem, invents)
            served, held = _outcome(
                lambda: managed.materialized(semantics, _config().guard))
            if served == "ok":
                _same_instance(held.instance, state, semantics, invents)
                if committed and not invents:
                    assert held is managed._materialized[semantics]
            else:  # the reference fails the same way
                assert _outcome(lambda: _reference(state, semantics))[0] \
                    == served
            if step % 6 == 5:
                _assert_reopens(tmp_path, managed, committed_oid)
        _assert_reopens(tmp_path, managed, committed_oid)
    finally:
        registry.close_all()
    return metrics


def _writes(metrics: MetricsRegistry, path: str) -> float:
    return metrics.counter("server_writes", (("db", "db"), ("path", path)))


@pytest.mark.parametrize("seed", range(4))
def test_positive_program_extends_and_matches_the_full_path(tmp_path, seed):
    metrics = _run_sequence(tmp_path, "positive", 9100 + seed, steps=36)
    assert _writes(metrics, "extend") > 0
    assert _writes(metrics, "full") > 0


@pytest.mark.parametrize("program", ["negation", "isa", "invention"])
@pytest.mark.parametrize("seed", range(2))
def test_programs_outside_the_fragment_take_the_full_path(tmp_path, program,
                                                         seed):
    metrics = _run_sequence(tmp_path, program, 9200 + seed, steps=24)
    assert _writes(metrics, "extend") == 0
    assert _writes(metrics, "full") > 0


#: negation over a predicate no rule defines: the semi-naive rounds
#: accept it, but an insert into ``blocked`` retracts derived facts
BLOCKED = BASE_SCHEMA.replace(
    "associations\n", "associations\n  blocked = (n: string).\n"
) + """
rules
  anc(a X, d Y) <- parent(par X, chil Y), ~blocked(n Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""


@pytest.mark.parametrize("semantics", [Semantics.INFLATIONARY,
                                       Semantics.STRATIFIED])
def test_an_insert_read_under_negation_takes_the_full_path(tmp_path,
                                                          semantics):
    metrics = MetricsRegistry()
    registry = DatabaseRegistry(tmp_path, metrics=metrics)
    managed = registry.create("db", BLOCKED)
    try:
        managed.apply('rules\n  parent(par "a", chil "b").\n'
                      '  parent(par "b", chil "c").', Mode.RIDV,
                      semantics=semantics)
        assert ("a", "b") in _anc(managed.materialized(semantics))
        # the entry a monotone program would extend is in place
        assert managed._base(semantics, (None, None, None)) is not None
        full = _writes(metrics, "full")
        result, _ = managed.apply('rules\n  blocked(n "b").', Mode.RIDV,
                                  semantics=semantics)
        assert not result.extended
        assert _writes(metrics, "full") == full + 1
        assert _writes(metrics, "extend") == 0
        state = managed.read_snapshot()
        assert result.instance == _reference(state, semantics)
        held = managed.materialized(semantics)
        assert held.instance == _reference(state, semantics)
        assert ("a", "b") not in _anc(held)  # the insert retracted it
    finally:
        registry.close_all()


def _anc(held) -> set[tuple[str, str]]:
    return {(f.value["a"], f.value["d"])
            for f in held.instance.facts_of("anc")}


def test_snapshots_between_writes_keep_the_contract(tmp_path):
    metrics = _run_sequence(tmp_path, "positive", 9300, steps=30,
                            snapshot_interval=4)
    assert _writes(metrics, "extend") > 0


def test_replay_threads_one_entry_through_the_log(tmp_path, monkeypatch):
    """Startup materializes once, not once per WAL record: after the
    first full replay each insert record extends the threaded entry."""
    managed = ManagedDatabase("db", tmp_path, snapshot_interval=1000)
    managed.create(POSITIVE)
    for i in range(5):
        managed.apply(f'rules\n  parent(par "p{i}", chil "p{i + 1}").',
                      Mode.RIDV)
    managed.close(snapshot=False)
    reopened = ManagedDatabase("db", tmp_path)
    extended = []

    def spy(*args, **kwargs):
        result = apply_module(*args, **kwargs)
        extended.append(result.extended)
        return result

    monkeypatch.setattr("repro.server.registry.apply_module", spy)
    reopened.open()
    assert extended == [False, True, True, True, True]
    held = reopened._materialized[Semantics.INFLATIONARY]
    assert held.seq == 5 and held.checked
    assert held.instance == _reference(reopened.read_snapshot(),
                                       Semantics.INFLATIONARY)
    reopened.wal.close()


@pytest.mark.parametrize("module,kind", [
    ('rules\n  parent(par "b", chil "a").', "denial"),
    ('rules\n  owns(who "w", item nil).', "reference"),
])
def test_a_rejected_extension_reads_like_the_full_check(tmp_path, module,
                                                        kind):
    """The delta check finds the violation and the full path words it:
    the message is the one without a base."""
    managed = ManagedDatabase("db", tmp_path)
    managed.create(POSITIVE)
    managed.apply('rules\n  parent(par "a", chil "b").\n'
                  '  node(label "n").', Mode.RIDV)
    (want, message), _ = _twin(managed, module, Mode.RIDV,
                               Semantics.INFLATIONARY, None)
    assert want == "ModuleApplicationError"
    assert f"{kind} violation" in message
    assert managed._base(Semantics.INFLATIONARY, (None, None, None)) \
        is not None
    with pytest.raises(LogresError) as info:
        managed.apply(module, Mode.RIDV)
    assert str(info.value) == message
    managed.wal.close()


def test_extension_check_agrees_with_the_full_check():
    """``extension_consistent`` over ``base ⊆ facts``, on violations
    module rules cannot produce (analysis rejects them statically):
    a verdict equal to the full check's on every one of them.  The
    schema has no isa edge, like every program the write path
    extends."""
    from repro.constraints.checker import ConsistencyChecker
    from repro.language.parser import parse_source
    from repro.storage.factset import FactSet
    from repro.values.complex import TupleValue
    from repro.values.oids import Oid

    unit = parse_source("""
classes
  person = (name: string).
  robot = (volts: integer).
associations
  likes = (who: person, what: string).
rules
  <- likes(who X, what "mud").
""")
    schema = unit.schema()
    checker = ConsistencyChecker(schema, tuple(unit.rules))
    base = FactSet()
    base.add_object("person", Oid(1), TupleValue(name="a"))
    base.add_object("person", Oid(2), TupleValue(name="b"))
    base.add_association("likes", TupleValue(who=Oid(1), what="tea"))
    assert checker.check(base) == []
    additions = {
        "consistent": ("likes", None, TupleValue(who=Oid(2), what="tea")),
        "hierarchy": ("robot", Oid(1), TupleValue(volts=9)),
        "structure": ("likes", None, TupleValue(who=Oid(1))),
        "reference": ("likes", None, TupleValue(who=Oid(9), what="x")),
        "denial": ("likes", None, TupleValue(who=Oid(1), what="mud")),
    }
    for name, (pred, oid, value) in additions.items():
        facts = base.copy()
        if oid is None:
            facts.add_association(pred, value)
        else:
            facts.add_object(pred, oid, value)
        full = checker.check(facts)
        assert (name == "consistent") == (full == []), (name, full)
        assert checker.extension_consistent(base, facts) == (full == []), \
            name


def test_copy_races_lazy_index_publication():
    """Writes copy the held instance that readers keep probing: index
    entries published mid-copy must not break the copy.  Readers answer
    goals on labels no index covers yet while a writer thread copies."""
    from repro.engine.goals import answer_goal
    from repro.language.parser import parse_source
    from repro.storage.factset import Fact, FactSet
    from repro.values.complex import TupleValue

    import sys
    import threading

    preds = [f"r{i}" for i in range(24)]
    labels = ("a", "b", "c", "d")
    unit = parse_source("associations\n" + "\n".join(
        f"  {p} = ({', '.join(f'{l}: string' for l in labels)})."
        for p in preds))
    schema = unit.schema()
    facts = [
        Fact(p, TupleValue(**{l: f"{l}{k % 5}" for l in labels}))
        for p in preds for k in range(20)
    ]
    goals = [
        parse_source(f'goal\n  ?- {p}({l} "{l}1", {other} X).').goal
        for p in preds for l in labels
        for other in labels if other != l
    ]
    errors: list[BaseException] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_no in range(6):
            held = FactSet.from_facts(facts)  # no index built yet
            done = threading.Event()
            order = list(goals)
            random.Random(round_no).shuffle(order)

            def reader(part):
                try:
                    for goal in part:
                        assert len(answer_goal(goal, held, schema)) == 1
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            def copier():
                try:
                    while not done.is_set():
                        assert held.copy() == held
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            readers = [threading.Thread(target=reader, args=(order[i::3],))
                       for i in range(3)]
            writer = threading.Thread(target=copier)
            writer.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            done.set()
            writer.join(timeout=60)
            assert not errors, errors
    finally:
        sys.setswitchinterval(interval)


def test_minus_keeps_the_left_order_and_o_values():
    """``minus`` filters per predicate but inserts what it keeps in the
    order ``self`` iterates, as the per-fact loop did, so the result
    iterates identically; a class fact whose o-value differs from
    ``other``'s is kept."""
    from repro.storage.factset import Fact, FactSet
    from repro.values.complex import TupleValue
    from repro.values.oids import Oid

    left, right = FactSet(), FactSet()
    for i in range(40):
        left.add_association("e", TupleValue(a=f"x{i}", b=i))
        if i % 3 == 0:
            right.add_association("e", TupleValue(a=f"x{i}", b=i))
    for i in range(1, 9):
        left.add_object("c", Oid(i), TupleValue(n=f"v{i}"))
        right.add_object("c", Oid(i), TupleValue(n=f"v{i - i % 2}"))
    reference = FactSet()
    for fact in left.facts():
        if fact not in right:
            reference.add(fact)
    kept = list(left.minus(right).facts())
    assert kept == list(reference.facts())
    assert Fact("c", TupleValue(n="v3"), Oid(3)) in kept
    assert len(kept) == 26 + 4


def test_string_fields_share_their_pairs(monkeypatch):
    """Every write adds facts repeating earlier field values; tuples
    built with an equal string field share one ``(label, value)`` pair.
    Other values are never shared (``1 == True``), and the table
    empties itself when full without changing any value."""
    from repro.values import complex as cv

    monkeypatch.setattr(cv, "_PAIRS", {})
    a = cv.TupleValue(user="u1", perm="p1")
    b = cv.TupleValue({"perm": "p1", "user": "u2"})
    assert a.items[0] is b.items[0] == ("perm", "p1")
    one, true = cv.TupleValue(v=1), cv.TupleValue(v=True)
    assert type(one["v"]) is int and type(true["v"]) is bool
    monkeypatch.setattr(cv, "_PAIRS_LIMIT", 4)
    made = [cv.TupleValue(k=f"v{i}") for i in range(10)]
    assert len(cv._PAIRS) <= 4
    assert [t["k"] for t in made] == [f"v{i}" for i in range(10)]
    assert cv.TupleValue(k="v9").items[0] is made[9].items[0]

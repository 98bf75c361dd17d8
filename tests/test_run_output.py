"""``repro run`` output rendering and its cyclic-GC pause.

The batch path formats every fact once and writes it with
``sys.stdout.write``; the bytes must equal the historical rendering — a
header, then the facts sorted by ``key=repr``, one ``print`` each — for
any instance.  It also pauses the cyclic garbage collector from after
loading through rendering: the collector's state must be restored on
every exit, and the premise of the pause (a run leaves a bounded amount
of cyclic garbage, whatever its input size) is pinned here.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import cli
from repro.language.ast import Program
from repro.storage import dump_state
from repro.storage.factset import Fact, FactSet
from repro.values.complex import SequenceValue, SetValue, TupleValue
from repro.values.oids import Oid
from repro.workloads.families import FAMILIES


def _fact_repr(fact: Fact) -> str:
    """``Fact.__repr__`` as it has always read, kept here verbatim so the
    reference rendering does not share code with the one under test."""
    if fact.oid is not None:
        inner = ", ".join(f"{k}: {v!r}" for k, v in fact.value.items)
        sep = ", " if inner else ""
        return f"{fact.pred}(self {fact.oid!r}{sep}{inner})"
    inner = ", ".join(f"{k}: {v!r}" for k, v in fact.value.items)
    return f"{fact.pred}({inner})"


def _printed_instance(instance: FactSet) -> str:
    """The rendering ``repro run`` has always produced."""
    buf = io.StringIO()
    for pred in instance.predicates():
        if pred.startswith("__"):
            continue
        print(f"{pred} ({instance.count(pred)}):", file=buf)
        for fact in sorted(instance.facts_of(pred), key=_fact_repr):
            print(f"  {_fact_repr(fact)}", file=buf)
    return buf.getvalue()


def _printed_answers(answers: list[dict]) -> str:
    buf = io.StringIO()
    print(f"{len(answers)} answer(s):", file=buf)
    for answer in answers:
        rendered = ", ".join(
            f"{k} = {v!r}" for k, v in sorted(answer.items())
        )
        print(f"  {rendered}", file=buf)
    return buf.getvalue()


def _written(fn, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn(*args)
    return buf.getvalue()


# strings that stress the rendering: quotes, backslashes, control and
# non-ASCII characters, and values that are prefixes of one another
_texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "a", "ab", "abc", "'", '"', "\\", "\\'", "a\nb",
                     "é", "日本", "\x00", "a b", "a)", "a,"]),
)
_scalars = st.one_of(
    st.integers(-1000, 1000), st.sampled_from([1, 12, 123]), _texts,
    st.booleans(), st.builds(Oid, st.integers(0, 50)),
)
_labels = st.sampled_from(["a", "b", "self_", "x1", "name"])


def _tuples(values):
    return st.dictionaries(_labels, values, max_size=3).map(TupleValue)


_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        _tuples(inner),
        st.lists(inner, max_size=3).map(SetValue),
        st.lists(inner, max_size=3).map(SequenceValue),
    ),
    max_leaves=6,
)
_preds = st.sampled_from(["p", "q", "person", "__aux", "__isa", "z"])


@st.composite
def _instances(draw):
    instance = FactSet()
    class_preds = {"person", "z"}
    for _ in range(draw(st.integers(0, 25))):
        pred = draw(_preds)
        value = draw(_tuples(_values))
        if pred in class_preds:
            instance.add(Fact(pred, value, Oid(draw(st.integers(1, 30)))))
        else:
            instance.add(Fact(pred, value))
    # a predicate whose every fact was removed still renders its header
    if draw(st.booleans()):
        gone = Fact("gone", TupleValue(a=1))
        instance.add(gone)
        instance.discard(gone)
    return instance


class TestRenderingBytes:
    @settings(max_examples=200, deadline=None)
    @given(_instances())
    def test_instance_matches_print_rendering(self, instance):
        assert _written(cli._print_instance, instance) == \
            _printed_instance(instance)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from(["S", "I", "X"]),
                                    _values, max_size=3), max_size=8))
    def test_answers_match_print_rendering(self, answers):
        assert _written(cli._print_answers, answers) == \
            _printed_answers(answers)

    def test_prefix_lines_and_empty_predicates(self):
        instance = FactSet()
        for value in (1, 12, 123, "ab", "abc", "a"):
            instance.add_association("p", TupleValue(a=value))
        instance.add_object("person", Oid(2), TupleValue())
        instance.add_object("person", Oid(10), TupleValue(name="o'k"))
        instance.add_association("__hidden", TupleValue(a=1))
        empty = Fact("empty", TupleValue(a=1))
        instance.add(empty)
        instance.discard(empty)
        out = _written(cli._print_instance, instance)
        assert out == _printed_instance(instance)
        assert "empty (0):\n" in out and "__hidden" not in out


def _run_inputs(tmp_path, family: str, scale: int, goal: str = ""):
    """``repro run`` arguments for a workload family at ``scale``: the
    rules (and an optional goal) in a source file, the facts in a
    persisted state."""
    fam = FAMILIES[family]
    schema, program, edb = fam.build(scale, 0)
    lg = tmp_path / f"{family}{scale}.lg"
    lg.write_text(fam.source + goal, encoding="utf-8")
    state = tmp_path / f"{family}{scale}.state.json"
    dump_state(str(state), schema, edb, Program(()))
    return ["run", str(lg), "--state", str(state)]


class TestRunOutput:
    def test_main_writes_the_print_rendering(self, tmp_path, capsys):
        from repro import Engine, EvalConfig, Semantics

        argv = _run_inputs(tmp_path, "kg", 120)
        assert cli.main(argv + ["--semantics", "stratified"]) == 0
        out = capsys.readouterr().out
        schema, program, edb = cli._load_unit(argv[1], argv[3])
        instance = Engine(schema, program, EvalConfig()).run(
            edb, Semantics.STRATIFIED)
        assert instance.count("riskcase") > 0  # invented oids rendered
        assert out == _printed_instance(instance)

    def test_main_writes_goal_answers(self, tmp_path, capsys):
        argv = _run_inputs(tmp_path, "rbac", 60,
                           goal='goal\n  ?- can(user "u1", perm P).\n')
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        header, *lines = out.splitlines()
        assert header == f"{len(lines)} answer(s):"
        assert lines and all(line.startswith("  P = ") for line in lines)

    def test_goal_answers_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Answers come from set iteration, whose order follows string
        hashes; two processes under different hash seeds must still
        print the same bytes."""
        argv = _run_inputs(tmp_path, "rbac", 60,
                           goal="goal\n  ?- can(user U, perm P).\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv], env=env,
                capture_output=True, check=True)
            outputs.append(done.stdout)
        assert outputs[0].count(b"\n") > 20
        assert outputs[0] == outputs[1]


class TestGcPolicy:
    @pytest.fixture
    def inputs(self, tmp_path):
        return _run_inputs(tmp_path, "reach", 40)

    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_state_restored_after_success(self, inputs, restore_gc,
                                          caller_enabled):
        (gc.enable if caller_enabled else gc.disable)()
        assert self._main(inputs) == 0
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_state_restored_after_budget_breach(self, inputs, restore_gc,
                                                caller_enabled):
        (gc.enable if caller_enabled else gc.disable)()
        assert self._main(inputs + ["--max-facts", "5"]) == 3
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_state_restored_after_parse_error(self, tmp_path, restore_gc,
                                              caller_enabled):
        bad = tmp_path / "bad.lg"
        bad.write_text("rules\n  p(x 1) <-\n", encoding="utf-8")
        (gc.enable if caller_enabled else gc.disable)()
        assert self._main(["run", str(bad)]) == 2
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_state_restored_after_exception(self, inputs, restore_gc,
                                            monkeypatch, caller_enabled):
        def boom(instance):
            assert not gc.isenabled()  # paused while rendering
            raise RuntimeError("render failed")

        monkeypatch.setattr(cli, "_print_instance", boom)
        (gc.enable if caller_enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="render failed"):
            self._main(inputs)
        assert gc.isenabled() is caller_enabled

    @pytest.mark.parametrize("family,scales,semantics", [
        ("reach", (60, 240), "inflationary"),
        ("reach", (60, 240), "stratified"),
        ("reach", (60, 240), "noninflationary"),
        ("kg", (100, 400), "inflationary"),
        ("kg", (100, 400), "stratified"),
        ("rbac", (100, 400), "inflationary"),
        ("rbac", (100, 400), "stratified"),
        ("rbac", (100, 400), "noninflationary"),
    ])
    def test_cyclic_garbage_does_not_grow_with_input(
            self, tmp_path, restore_gc, family, scales, semantics):
        # with the collector off for the whole run, whatever it finds
        # afterwards is all the cyclic garbage the run made; pausing it
        # is sound only if that stays bounded as the input grows
        def garbage(scale: int) -> int:
            argv = _run_inputs(tmp_path, family, scale)
            gc.collect()
            gc.disable()
            assert self._main(argv + ["--semantics", semantics]) == 0
            return gc.collect()

        garbage(scales[0])  # first run: lazy imports and caches
        small, large = (garbage(scale) for scale in scales)
        assert large <= small + 50, (small, large)

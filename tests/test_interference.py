"""Unit and CLI tests for the effect & interference analysis.

Covers :mod:`repro.analysis.effects` (per-rule effect sets),
:mod:`repro.analysis.interference` (edges, certificates, the LG10xx
confluence pass, the pair budget), the ``repro analyze`` command and its
exit-code convention, and the ``repro profile`` analysis section.
"""

import json

import pytest

from repro.analysis import lint_source
from repro.analysis.driver import analyze_source
from repro.analysis.effects import program_effects
from repro.analysis.interference import (
    Interference,
    independent_groups,
    interference_edges,
)
from repro.cli import main
from repro.engine import Semantics
from repro.language.parser import parse_source
from repro.storage.factset import FactSet


def _analyzed(source):
    report = lint_source(source)
    assert not report.has_errors, [d.render() for d in report.diagnostics]
    return report.analyzed


# ---------------------------------------------------------------------------
# effect sets
# ---------------------------------------------------------------------------
EFFECTS_SOURCE = """
classes
  node = (name: string, tag: string).
associations
  e = (a: string, b: string).
  out = (a: string, b: string).
rules
  out(a X, b Y) <- e(a X, b Y), ~e(a Y, b X), X < Y.
  ~out(a X, b Y) <- out(a X, b Y), e(a Y, b X).
  node(name X, tag X) <- e(a X, b X).
  out(a X, b X) <- node(self S, name X).
"""


class TestEffects:
    def test_reads_writes_and_flags(self):
        analyzed = _analyzed(EFFECTS_SOURCE)
        effects = program_effects(analyzed)
        assert set(effects) == {0, 1, 2, 3}

        filt = effects[0]
        assert filt.derives == "out" and filt.deletes is None
        assert filt.reads == {"e"}
        assert filt.negative_reads == {"e"}
        assert "<" in filt.builtins
        assert not filt.invents_oid and not filt.head_is_class

        deleter = effects[1]
        assert deleter.deletes == "out" and deleter.derives is None
        assert deleter.writes == "out"
        assert deleter.reads == {"out", "e"}

        inventor = effects[2]
        assert inventor.invents_oid
        assert inventor.head_is_class
        assert inventor.hierarchy_root == "node"
        assert inventor.invention_span is not None

        reader = effects[3]
        assert "node" in reader.reads
        assert reader.derives == "out"

    def test_effects_serialize(self):
        analyzed = _analyzed(EFFECTS_SOURCE)
        for eff in program_effects(analyzed).values():
            payload = eff.to_dict()
            assert payload["rule"] == eff.index
            assert isinstance(payload["reads"], list)
            json.dumps(payload)  # JSON-serializable throughout


# ---------------------------------------------------------------------------
# interference edges
# ---------------------------------------------------------------------------
class TestEdges:
    def test_derive_delete_edge(self):
        analyzed = _analyzed("""
        associations
          q = (x: string).
          r = (x: string).
          p = (x: string).
        rules
          p(x X) <- q(x X).
          ~p(x X) <- r(x X).
        """)
        effects = list(program_effects(analyzed).values())
        kinds = {e.kind for e in
                 interference_edges(effects, analyzed.schema)}
        assert "derive-delete" in kinds

    def test_delete_read_edge(self):
        analyzed = _analyzed("""
        associations
          r = (x: string).
          p = (x: string).
          t = (x: string).
        rules
          t(x X) <- p(x X).
          ~p(x X) <- r(x X).
        """)
        effects = list(program_effects(analyzed).values())
        edges = interference_edges(effects, analyzed.schema)
        assert any(e.kind == "delete-read" and e.pred == "p"
                   for e in edges)

    def test_class_overwrite_edge(self):
        analyzed = _analyzed("""
        classes
          node = (name: string, tag: string).
        associations
          e = (a: string, b: string).
        rules
          node(self S, tag X) <- node(self S, name X), e(a X, b X).
          node(self S, tag Y) <- node(self S, name X), e(a X, b Y).
        """)
        effects = list(program_effects(analyzed).values())
        edges = interference_edges(effects, analyzed.schema)
        assert any(e.kind == "class-overwrite" and e.pred == "node"
                   for e in edges)

    def test_invention_edges(self):
        analyzed = _analyzed("""
        classes
          node = (name: string).
        associations
          e = (a: string, b: string).
        rules
          node(name X) <- e(a X, b X).
          node(name Y) <- e(a X, b Y), X < Y.
          e(a X, b X) <- node(self S, name X).
        """)
        effects = list(program_effects(analyzed).values())
        edges = interference_edges(effects, analyzed.schema)
        kinds = {e.kind for e in edges}
        assert "invention-invention" in kinds
        # the reader of the invented class races both inventors
        assert any(e.kind == "invention-read" for e in edges)

    def test_commuting_derives_have_no_edge(self):
        analyzed = _analyzed("""
        associations
          e = (a: string, b: string).
          out = (a: string, b: string).
        rules
          out(a X, b Y) <- e(a X, b Y).
          out(a Y, b X) <- e(a X, b Y).
        """)
        effects = list(program_effects(analyzed).values())
        assert interference_edges(effects, analyzed.schema) == []


class TestGroups:
    def test_greedy_partition(self):
        edges = [Interference(0, 1, "derive-delete", "p", "x")]
        groups = independent_groups([0, 1, 2], edges)
        assert groups == [[0, 2], [1]]

    def test_multi_inventor_degrades_to_singletons(self):
        groups = independent_groups([0, 1, 2], [], multi_inventor=True)
        assert groups == [[0], [1], [2]]

    def test_deterministic(self):
        edges = [Interference(1, 2, "delete-read", "p", "x")]
        assert independent_groups([2, 0, 1], edges) == \
            independent_groups([0, 1, 2], edges)


# ---------------------------------------------------------------------------
# the confluence pass: a crafted race, and its stratified fix
# ---------------------------------------------------------------------------
RACE = """
associations
  q = (x: string).
  r = (x: string).
  p = (x: string).
  t = (x: string).
rules
  t(x X) <- q(x X).
  t(x X) <- p(x X).
  p(x X) <- t(x X).
  ~p(x X) <- r(x X).
"""

# the recursion through ``p(x X) <- t(x X)`` is what forces reader and
# deleter into one stratum; without it the deletion and its readers land
# in separate strata and every hazard disappears.
FIXED = """
associations
  q = (x: string).
  r = (x: string).
  p = (x: string).
  t = (x: string).
rules
  t(x X) <- q(x X).
  t(x X) <- p(x X).
  ~p(x X) <- r(x X).
"""


class TestConfluencePass:
    def test_race_fires_lg10xx(self):
        codes = [d.code for d in lint_source(RACE).diagnostics]
        assert "LG1001" in codes  # derive/delete race on p
        assert "LG1002" in codes  # the deletion races the reader of p

    def test_fix_in_separate_strata_is_clean(self):
        codes = [d.code for d in lint_source(FIXED).diagnostics]
        assert not any(c.startswith("LG10") for c in codes)

    def test_hazards_carry_spans_and_related(self):
        diags = [d for d in lint_source(RACE).diagnostics
                 if d.code.startswith("LG10")]
        assert diags
        for diag in diags:
            assert diag.span is not None
            assert diag.related and diag.related[0].span is not None

    def test_budget_emits_lg1004_and_singletons(self):
        report = lint_source(RACE, max_pairs=0)
        assert "LG1004" in [d.code for d in report.diagnostics]
        inter = report.interference
        assert inter.pair_budget_exceeded
        assert all(len(g) == 1 for s in inter.strata for g in s.groups)


# ---------------------------------------------------------------------------
# repro analyze: payload + exit codes
# ---------------------------------------------------------------------------
@pytest.fixture
def write(tmp_path):
    def _write(text, name="prog.lg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


class TestAnalyzeCli:
    def test_clean_exits_0(self, write, capsys):
        assert main(["analyze", write(FIXED)]) == 0
        out = capsys.readouterr().out
        assert "independent groups" in out

    def test_hazard_exits_1(self, write):
        assert main(["analyze", write(RACE)]) == 1

    def test_static_error_exits_2(self, write, capsys):
        assert main(["analyze", write("rules\n p(x X <- q.")]) == 2

    def test_budget_exits_3(self, write):
        assert main(["analyze", write(RACE), "--max-pairs", "0"]) == 3

    def test_json_payload_shape(self, write, capsys):
        main(["analyze", write(RACE, "race.lg"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["kind"] == "analysis"
        assert payload["rules"] and payload["strata"]
        for stratum in payload["strata"]:
            assert set(stratum) == {
                "index", "rules", "interference", "independent_groups"
            }
        assert payload["summary"]["hazards"] >= 2
        assert any(
            d["code"] == "LG1001" for d in payload["diagnostics"]
        )

    def test_json_groups_cover_all_rules(self, write, capsys):
        main(["analyze", write(FIXED), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        for stratum in payload["strata"]:
            grouped = sorted(
                i for g in stratum["independent_groups"] for i in g
            )
            assert grouped == sorted(stratum["rules"])


# ---------------------------------------------------------------------------
# the profile's analysis section
# ---------------------------------------------------------------------------
STRATIFIED_SOURCE = """
associations
  e = (a: string, b: string).
  tc = (a: string, b: string).
  pair = (a: string, b: string).
rules
  tc(a X, b Y) <- e(a X, b Y).
  tc(a X, b Z) <- e(a X, b Y), tc(a Y, b Z).
  pair(a X, b Y) <- tc(a X, b Y), ~e(a Y, b X).
"""


class TestProfileAnalysisSection:
    def test_profile_carries_analysis(self):
        from repro.observability.profile import profile_program

        unit = parse_source(STRATIFIED_SOURCE)
        _, profile, _ = profile_program(
            unit.schema(), unit.program(), FactSet(),
            semantics=Semantics.STRATIFIED,
        )
        payload = profile.to_dict()
        assert payload["analysis"]["inventors"] == 0
        assert payload["analysis"]["strata"]
        assert "analysis:" in profile.render_text()

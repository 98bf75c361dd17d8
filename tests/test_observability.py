"""Tests for the observability subsystem.

Covers the metrics registry, JSONL round-tripping of every event type,
the phase timer, and — the load-bearing property — the null-sink fast
path: a run with disabled instrumentation produces identical results
and never allocates an event object.
"""

import io
import json

import pytest

from repro.engine import Engine, Semantics
from repro.language.ast import Program
from repro.language.parser import parse_source
from repro.observability import (
    EVENT_TYPES,
    CollectorSink,
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    NULL_INSTRUMENTATION,
    PhaseTimer,
    RuleFired,
    TextSink,
    event_from_dict,
    read_jsonl,
)
from repro.storage.factset import FactSet

TC_SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  parent(par "a", chil "b").
  parent(par "b", chil "c").
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""


def _load(source=TC_SOURCE):
    unit = parse_source(source)
    return unit.schema(), Program(tuple(unit.rules), unit.goal)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", amount=4)
        assert reg.counter("hits") == 5

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.inc("fires", (("rule", "0"),))
        reg.inc("fires", (("rule", "1"),), 2)
        assert reg.counter("fires", (("rule", "0"),)) == 1
        assert reg.counter("fires", (("rule", "1"),)) == 2
        assert reg.counters_named("fires") == {
            (("rule", "0"),): 1,
            (("rule", "1"),): 2,
        }

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("facts", value=10)
        reg.set_gauge("facts", value=7)
        assert reg.gauge("facts") == 7
        assert reg.gauge("missing") is None

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.observe("lat", value=v)
        hist = reg.histogram("lat")
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_snapshot_renders_series_keys(self):
        reg = MetricsRegistry()
        reg.inc("fires", (("rule", "2"),))
        reg.observe("lat", value=0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"fires{rule=2}": 1}
        assert snap["histograms"]["lat"]["count"] == 1
        assert set(snap["histograms"]["lat"]) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }
        assert snap["histograms"]["lat"]["p50"] == 0.5
        json.dumps(snap)  # must be JSON-clean


# ---------------------------------------------------------------------------
# events: JSONL round-trip
# ---------------------------------------------------------------------------
_SAMPLE_FIELDS = {
    "semantics": "inflationary",
    "rules": 3,
    "iterations": 4,
    "facts": 9,
    "inventions": 1,
    "elapsed": 0.25,
    "index": 2,
    "number": 5,
    "rule_index": 1,
    "rule": "p(x X) <- q(x X).",
    "pred": "p",
    "fact": "p(x: 1)",
    "iteration": 3,
    "file": "unit.lg",
    "line": 7,
    "column": 3,
    "oid": "#4",
    "violation_kind": "denial",
    "predicate": "p",
    "message": "denial violated",
}


class TestEventRoundTrip:
    @pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
    def test_every_event_type_round_trips(self, kind):
        import dataclasses

        cls = EVENT_TYPES[kind]
        kwargs = {
            f.name: _SAMPLE_FIELDS[f.name]
            for f in dataclasses.fields(cls)
            if f.name in _SAMPLE_FIELDS
        }
        event = cls(**kwargs)
        payload = event.to_dict()
        assert payload["event"] == kind
        line = json.dumps(payload)
        back = event_from_dict(json.loads(line))
        assert back == event
        assert back.to_dict() == payload

    def test_rich_fields_never_serialized(self):
        event = RuleFired(rule_index=0, fact="p(x: 1)",
                          fact_value=object(), rule_value=object(),
                          bindings_value={"X": 1})
        payload = event.to_dict()
        assert "fact_value" not in payload
        assert "rule_value" not in payload
        assert "bindings_value" not in payload
        json.dumps(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"event": "no-such-event"})

    def test_jsonl_sink_round_trip(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        events = [
            EVENT_TYPES["run-start"](semantics="inflationary", rules=2),
            EVENT_TYPES["iteration-start"](number=1),
            EVENT_TYPES["run-end"](iterations=1, facts=2, elapsed=0.1),
        ]
        for e in events:
            sink.emit(e)
        sink.close()
        buffer.seek(0)
        assert read_jsonl(buffer) == events

    def test_text_sink_renders_one_line_per_event(self):
        buffer = io.StringIO()
        sink = TextSink(buffer)
        sink.emit(EVENT_TYPES["iteration-start"](number=3))
        assert buffer.getvalue() == "[iteration-start] number=3\n"


# ---------------------------------------------------------------------------
# phase timer
# ---------------------------------------------------------------------------
class TestPhaseTimer:
    def test_nested_phases(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            with timer.phase("inner"):
                pass
        tree = timer.to_dict()
        assert tree["count"] == 1
        assert "inner" in tree["children"]["outer"]["children"]

    def test_reentered_phase_accumulates(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("round"):
                pass
        assert timer.root.children["round"].count == 3
        assert timer.render()  # non-empty


# ---------------------------------------------------------------------------
# null-sink fast path
# ---------------------------------------------------------------------------
class TestNullFastPath:
    def test_disabled_instrumentation_is_disabled(self):
        assert not NULL_INSTRUMENTATION.enabled
        assert Instrumentation().enabled is False
        assert Instrumentation(MetricsRegistry()).enabled is True

    def test_identical_results_with_and_without(self):
        schema, program = _load()
        plain = Engine(schema, program).run(
            FactSet(), Semantics.INFLATIONARY
        )
        obs = Instrumentation(MetricsRegistry(), CollectorSink())
        instrumented = Engine(schema, program, instrumentation=obs).run(
            FactSet(), Semantics.INFLATIONARY
        )
        assert plain == instrumented

    def test_null_path_allocates_no_event_objects(self, monkeypatch):
        """A run without instrumentation must never construct events."""
        def _bomb(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("event allocated on the null path")

        for cls in EVENT_TYPES.values():
            monkeypatch.setattr(cls, "__init__", _bomb)
        schema, program = _load()
        result = Engine(schema, program).run(
            FactSet(), Semantics.INFLATIONARY
        )
        assert result.count() == 5

    def test_metrics_only_run_allocates_no_event_objects(self, monkeypatch):
        """Metrics without a sink must also skip event construction."""
        def _bomb(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("event allocated without a sink")

        for cls in EVENT_TYPES.values():
            monkeypatch.setattr(cls, "__init__", _bomb)
        schema, program = _load()
        obs = Instrumentation(MetricsRegistry())
        result = Engine(schema, program, instrumentation=obs).run(
            FactSet(), Semantics.INFLATIONARY
        )
        assert result.count() == 5
        assert sum(
            obs.metrics.counters_named("rule_fires").values()
        ) == 5


# ---------------------------------------------------------------------------
# engine event stream / metrics integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_event_stream_shape(self):
        schema, program = _load()
        collector = CollectorSink()
        obs = Instrumentation(MetricsRegistry(), collector)
        Engine(schema, program, instrumentation=obs).run(
            FactSet(), Semantics.INFLATIONARY
        )
        kinds = [e.kind for e in collector.events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        assert kinds.count("iteration-start") == \
            kinds.count("iteration-end")
        assert len(collector.of_kind("rule-fire")) == 5

    def test_rule_fire_events_carry_spans(self):
        schema, program = _load()
        collector = CollectorSink()
        obs = Instrumentation(
            MetricsRegistry(), collector, source_file="unit.lg"
        )
        Engine(schema, program, instrumentation=obs).run(
            FactSet(), Semantics.INFLATIONARY
        )
        fire = collector.of_kind("rule-fire")[0]
        assert fire.file == "unit.lg"
        assert fire.line is not None
        assert fire.fact_value is not None  # rich reference attached

    def test_index_stats_folded_into_counters(self):
        schema, program = _load()
        obs = Instrumentation(MetricsRegistry())
        Engine(schema, program, instrumentation=obs).run(
            FactSet(), Semantics.INFLATIONARY
        )
        snap = obs.metrics.snapshot()["counters"]
        assert "factset_index_hits" in snap
        assert snap.get("factset_index_builds", 0) >= 1

    def test_run_events_written_as_jsonl(self, tmp_path):
        schema, program = _load()
        out = tmp_path / "events.jsonl"
        sink = JsonlSink(out.open("w"), close_stream=True)
        obs = Instrumentation(sink=sink)
        Engine(schema, program, instrumentation=obs).run(
            FactSet(), Semantics.INFLATIONARY
        )
        obs.close()
        with out.open() as f:
            events = read_jsonl(f)
        assert events[0].kind == "run-start"
        assert any(e.kind == "rule-fire" for e in events)

"""Tests for the live telemetry stack.

Covers the event bus (fan-out, filters, retention replay, drop
accounting under a slow subscriber), trace contexts (envelope fields on
every event type, JSONL round-trip), streaming metrics (histogram
quantile edge cases, Prometheus exposition), heartbeat
emission, the Unix-socket telemetry server, and ``repro tail`` against
both a recorded event file and a live socket.
"""

import io
import json
import os
import pathlib
import socket
import sys
import threading

import pytest

from repro.cli import main
from repro.engine import Engine, Semantics
from repro.language.ast import Program
from repro.language.parser import parse_source
from repro.observability import (
    EVENT_TYPES,
    CollectorSink,
    EventBus,
    EventFilter,
    Heartbeat,
    Instrumentation,
    JsonlSink,
    MetricsRegistry,
    RuleFired,
    StreamingHistogram,
    TraceContext,
    build_filter,
    event_from_dict,
    event_to_dict,
    render_prometheus,
)
from repro.observability.tail import TailView, tail_stream
from repro.observability.telemetry_server import (
    FollowFileSink,
    TelemetryServer,
    serve_telemetry,
    unix_sockets_supported,
)

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


def _beat(i=0, **kw):
    kw.setdefault("stratum", None)
    kw.setdefault("facts", i)
    kw.setdefault("inventions", 0)
    kw.setdefault("elapsed", 0.0)
    return Heartbeat(iteration=i, **kw)


# ---------------------------------------------------------------------------
# trace contexts
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_span_ids_are_monotonic_and_parented(self):
        trace = TraceContext()
        outer, outer_parent = trace.start_span()
        inner, inner_parent = trace.start_span()
        assert outer_parent is None
        assert inner_parent == outer
        assert outer != inner
        assert trace.current() == (inner, outer)

    def test_end_span_pops(self):
        trace = TraceContext()
        outer, _ = trace.start_span()
        trace.start_span()
        trace.end_span()
        assert trace.current() == (outer, None)

    def test_end_span_until_unwinds_past_crashed_children(self):
        trace = TraceContext()
        run, _ = trace.start_span()
        trace.start_span()   # stratum, never closed (simulated abort)
        trace.start_span()   # iteration, never closed
        trace.end_span_until(run)
        assert trace.current() == (None, None)

    def test_run_ids_are_unique(self):
        assert TraceContext().run_id != TraceContext().run_id

    def test_instrumented_run_stamps_every_event(self):
        schema, program = _load()
        collector = CollectorSink()
        obs = Instrumentation(sink=collector)
        engine = Engine(schema, program, instrumentation=obs)
        engine.run(FactSetLike(), Semantics.INFLATIONARY)
        run_ids = {e.run_id for e in collector.events}
        assert run_ids == {obs.trace.run_id}
        assert all(e.span_id for e in collector.events)

    def test_boundary_pair_shares_a_span(self):
        schema, program = _load()
        collector = CollectorSink()
        obs = Instrumentation(sink=collector)
        engine = Engine(schema, program, instrumentation=obs)
        engine.run(FactSetLike(), Semantics.INFLATIONARY)
        start = next(e for e in collector.events
                     if e.kind == "run-start")
        end = next(e for e in collector.events if e.kind == "run-end")
        assert start.span_id == end.span_id


def FactSetLike():
    from repro.storage.factset import FactSet

    return FactSet()


class TestEnvelopeRoundTrip:
    def test_every_event_type_round_trips_with_envelope(self):
        for kind, cls in EVENT_TYPES.items():
            event = _sample_event(cls)
            event = _with_envelope(event)
            payload = json.loads(json.dumps(event_to_dict(event)))
            back = event_from_dict(payload)
            assert back.kind == kind
            assert back.run_id == "r-test"
            assert back.span_id == "s1"
            assert back.parent_span_id == "s0"

    def test_unset_envelope_is_not_serialized(self):
        event = _beat()
        payload = event_to_dict(event)
        assert "run_id" not in payload
        assert "span_id" not in payload


def _sample_event(cls):
    """A minimally-populated instance of an event dataclass."""
    import dataclasses

    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING or \
                f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            continue
        if f.type in ("int", "int | None"):
            kwargs[f.name] = 1
        elif f.type == "float":
            kwargs[f.name] = 0.5
        elif f.type == "bool":
            kwargs[f.name] = False
        elif f.type in ("tuple", "tuple[str, ...]"):
            kwargs[f.name] = ()
        elif f.type == "dict":
            kwargs[f.name] = {}
        else:
            kwargs[f.name] = "x"
    return cls(**kwargs)


def _with_envelope(event):
    import dataclasses

    return dataclasses.replace(
        event, run_id="r-test", span_id="s1", parent_span_id="s0"
    )


# ---------------------------------------------------------------------------
# the event bus
# ---------------------------------------------------------------------------
class TestEventBus:
    def test_attached_sinks_see_every_event(self):
        bus = EventBus()
        collector = CollectorSink()
        bus.attach_sink(collector)
        for i in range(10):
            bus.emit(_beat(i))
        assert len(collector.events) == 10

    def test_subscription_receives_published_events(self):
        bus = EventBus()
        sub = bus.subscribe(name="t")
        bus.emit(_beat(1))
        bus.emit(_beat(2))
        assert [e.iteration for e in sub.poll()] == [1, 2]

    def test_slow_subscriber_drops_oldest_and_counts(self):
        bus = EventBus()
        sub = bus.subscribe(name="slow", capacity=4)
        for i in range(10):
            bus.emit(_beat(i))
        events = sub.poll()
        assert [e.iteration for e in events] == [6, 7, 8, 9]
        assert sub.dropped == 6
        assert sub.delivered == 10
        stats = bus.stats()
        assert stats["published"] == 10
        entry = stats["subscribers"][0]
        assert entry == {"name": "slow", "delivered": 10,
                         "dropped": 6, "capacity": 4}

    def test_drops_surface_as_metrics(self):
        bus = EventBus()
        bus.subscribe(name="slow", capacity=1)
        for i in range(3):
            bus.emit(_beat(i))
        metrics = MetricsRegistry()
        bus.fold_metrics(metrics)
        label = (("subscriber", "slow"),)
        assert metrics.gauge("bus_published_events") == 3
        assert metrics.gauge("bus_dropped_events", label) == 2

    def test_replay_delivers_retained_context(self):
        bus = EventBus(retain=8)
        for i in range(20):
            bus.emit(_beat(i))
        sub = bus.subscribe(name="late", replay=True)
        assert [e.iteration for e in sub.poll()] == list(range(12, 20))

    def test_kind_filter(self):
        bus = EventBus()
        sub = bus.subscribe(name="f",
                            filter=build_filter(kinds=["heartbeat"]))
        bus.emit(_beat(1))
        bus.emit(_rule_fired())
        assert [e.kind for e in sub.poll()] == ["heartbeat"]

    def test_rule_filter_keeps_structural_events(self):
        f = build_filter(rules=[3])
        assert f.accepts(_rule_fired(rule_index=3))
        assert not f.accepts(_rule_fired(rule_index=4))
        assert f.accepts(_beat())  # structural: the run skeleton stays

    def test_close_wakes_waiters_and_keeps_queue(self):
        bus = EventBus()
        sub = bus.subscribe(name="t")
        bus.emit(_beat(1))
        bus.close()
        assert [e.iteration for e in sub.wait(timeout=1)] == [1]
        assert sub.ended

    def test_wait_blocks_until_publish(self):
        bus = EventBus()
        sub = bus.subscribe(name="t")
        got = []

        def consume():
            got.extend(sub.wait(timeout=5))

        t = threading.Thread(target=consume)
        t.start()
        bus.emit(_beat(7))
        t.join(timeout=5)
        assert [e.iteration for e in got] == [7]

    def test_closed_subscription_is_forgotten(self):
        bus = EventBus()
        sub = bus.subscribe(name="t")
        sub.close()
        bus.emit(_beat(1))
        assert bus.stats()["subscribers"] == []

    def test_broken_sink_is_evicted_not_fatal(self):
        """A tail client dying mid-write (BrokenPipeError is an OSError)
        must not take the publisher down: the sink is dropped, counted,
        and the healthy sink keeps receiving."""

        class BrokenSink:
            def __init__(self):
                self.emits = 0
                self.closed = False

            def emit(self, event):
                self.emits += 1
                raise BrokenPipeError("client went away")

            def close(self):
                self.closed = True

        bus = EventBus()
        broken, healthy = BrokenSink(), CollectorSink()
        bus.attach_sink(broken)
        bus.attach_sink(healthy)
        for i in range(5):
            bus.emit(_beat(i))
        assert broken.emits == 1          # evicted after the first failure
        assert broken.closed              # best-effort close on eviction
        assert len(healthy.events) == 5   # the healthy sink saw everything
        assert bus.stats()["dropped_sinks"] == 1

    def test_evicted_sinks_surface_as_metrics(self):
        class BrokenSink:
            def emit(self, event):
                raise OSError("disk gone")

            def close(self):
                pass

        bus = EventBus()
        bus.attach_sink(BrokenSink())
        bus.emit(_beat(1))
        metrics = MetricsRegistry()
        bus.fold_metrics(metrics)
        assert metrics.gauge("bus_dropped_sinks") == 1


def _rule_fired(rule_index=0):
    return RuleFired(
        rule_index=rule_index,
        rule="anc(a X, d Y) <- parent(par X, chil Y).",
        pred="anc", fact="anc(a 'a', d 'b')", iteration=1,
    )


# ---------------------------------------------------------------------------
# streaming metrics
# ---------------------------------------------------------------------------
class TestStreamingHistogram:
    def test_empty_reports_zero(self):
        hist = StreamingHistogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.to_dict()["p99"] == 0.0

    def test_single_observation_all_quantiles_equal_it(self):
        hist = StreamingHistogram(buckets=(1.0, 2.0, 4.0))
        hist.observe(1.5)
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == pytest.approx(1.5)

    def test_quantiles_clamped_to_observed_range(self):
        hist = StreamingHistogram(buckets=(10.0,))
        for v in (2.0, 3.0, 4.0):
            hist.observe(v)
        assert 2.0 <= hist.quantile(0.5) <= 4.0
        assert hist.quantile(0.99) <= 4.0

    def test_median_of_uniform_samples(self):
        hist = StreamingHistogram(buckets=tuple(float(b)
                                                for b in range(1, 101)))
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=1.5)
        assert hist.quantile(0.99) == pytest.approx(99.0, abs=1.5)

    def test_overflow_bucket_catches_large_values(self):
        hist = StreamingHistogram(buckets=(1.0,))
        hist.observe(100.0)
        rows = hist.cumulative()
        assert rows[-1] == (float("inf"), 1)
        assert hist.quantile(0.99) == pytest.approx(100.0)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            StreamingHistogram(buckets=(2.0, 1.0))


class TestPrometheusRendering:
    def test_counters_gauges_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("rule_fires", (("rule", "0"),), 5)
        metrics.set_gauge("run_facts", value=42)
        metrics.observe("rule_time", value=0.05)
        text = render_prometheus(metrics)
        assert 'repro_rule_fires_total{rule="0"} 5' in text
        assert "repro_run_facts 42" in text
        assert 'repro_rule_time_bucket{le="0.0256"} 0' in text
        assert 'repro_rule_time_bucket{le="0.0512"} 1' in text
        assert 'repro_rule_time_bucket{le="+Inf"} 1' in text
        assert "repro_rule_time_count 1" in text
        assert text.endswith("\n")

    def test_every_series_line_is_well_formed(self):
        import re

        metrics = MetricsRegistry()
        metrics.inc("rule_fires", (("rule", "0"),))
        metrics.observe("rule_time", (("rule", "0"),), 0.002)
        metrics.set_gauge("bus_published_events", value=10)
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
        )
        for line in render_prometheus(metrics).strip().split("\n"):
            if line.startswith("#"):
                continue
            assert line_re.match(line), line

    def test_exposition_is_pinned(self):
        # the golden file was rendered from these calls before the two
        # registries merged: /metrics and --prom-out scrapers must see
        # byte-identical text
        metrics = MetricsRegistry()
        metrics.inc("rule_fires", (("rule", "0"),), 5)
        metrics.inc("rule_fires", (("rule", "1"),))
        metrics.inc("server_requests", (("op", "run"), ("status", "200")))
        metrics.inc("plain")
        metrics.inc("plain", amount=2.5)
        metrics.inc("weird.name-x", (("q", 'a"b\\c\nd'),))
        metrics.set_gauge("run_facts", value=42)
        metrics.set_gauge("ratio", (("db", "x"),), 0.25)
        metrics.observe("rule_time", (("rule", "0"),), 0.002)
        metrics.observe("rule_time", (("rule", "0"),), 0.0)
        metrics.observe("rule_time", (("rule", "1"),), 0.05)
        metrics.observe("run_time", value=1.5)
        metrics.observe("run_time", value=100.0)
        metrics.observe("join_fanout", (("pred", "anc"),), 3.0)
        golden = pathlib.Path(__file__).parent / "fixtures" / "registry.prom"
        assert render_prometheus(metrics) == golden.read_text()


class TestRegistryThreads:
    def test_concurrent_writes_lose_nothing(self):
        # handler threads of the HTTP server share one registry; a tiny
        # switch interval makes an unlocked read-modify-write lose
        # increments within a few thousand calls
        metrics = MetricsRegistry()
        threads, per_thread = 4, 5_000
        labels = (("op", "run"),)
        pair = (("hits", labels), ("misses", labels))

        def work():
            for _ in range(per_thread):
                metrics.inc("server_requests", labels)
                metrics.inc_series(pair)
                metrics.observe("server_request_seconds", labels, 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        assert metrics.counter("server_requests", labels) == total
        assert metrics.counter("hits", labels) == total
        assert metrics.counter("misses", labels) == total
        hist = metrics.histogram("server_request_seconds", labels)
        assert hist.count == total
        assert sum(hist.counts) == total


# ---------------------------------------------------------------------------
# heartbeats
# ---------------------------------------------------------------------------
class TestHeartbeats:
    def test_heartbeats_emitted_at_iteration_boundaries(self):
        schema, program = _load()
        collector = CollectorSink()
        obs = Instrumentation(sink=collector, heartbeat_interval=0.0)
        engine = Engine(schema, program, instrumentation=obs)
        engine.run(FactSetLike(), Semantics.INFLATIONARY)
        beats = [e for e in collector.events if e.kind == "heartbeat"]
        assert beats
        assert all(e.run_id for e in beats)
        assert beats[-1].facts >= beats[0].facts

    def test_no_heartbeats_without_interval(self):
        schema, program = _load()
        collector = CollectorSink()
        obs = Instrumentation(sink=collector)
        engine = Engine(schema, program, instrumentation=obs)
        engine.run(FactSetLike(), Semantics.INFLATIONARY)
        assert not [e for e in collector.events
                    if e.kind == "heartbeat"]


# ---------------------------------------------------------------------------
# guards flush on breach (the partial-trace bugfix)
# ---------------------------------------------------------------------------
class TestFlushOnBreach:
    def test_trip_invokes_on_breach_callback(self):
        from repro.engine import ResourceGuard
        from repro.errors import EvalBudgetExceeded

        flushed = []
        guard = ResourceGuard(max_facts=1)
        guard.arm(on_breach=lambda: flushed.append(True))
        with pytest.raises(EvalBudgetExceeded):
            guard.check_iteration(facts=10)
        assert flushed == [True]

    def test_breached_run_leaves_complete_jsonl(self, tmp_path):
        from repro.engine import EvalConfig, ResourceGuard
        from repro.errors import EvalBudgetExceeded

        schema, program = _load()
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(open(path, "w", encoding="utf-8"),
                         close_stream=True)
        obs = Instrumentation(sink=sink)
        config = EvalConfig(guard=ResourceGuard(max_facts=2))
        engine = Engine(schema, program, config=config,
                        instrumentation=obs)
        with pytest.raises(EvalBudgetExceeded):
            engine.run(FactSetLike(), Semantics.INFLATIONARY)
        obs.close()
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)  # every line is complete JSON


# ---------------------------------------------------------------------------
# telemetry server + repro tail
# ---------------------------------------------------------------------------
def _record_run(path, heartbeat=0.0):
    """An instrumented run recorded to a JSONL file; returns the path."""
    from repro.observability import StreamHeader

    schema, program = _load()
    bus = EventBus()
    sink = JsonlSink(open(path, "w", encoding="utf-8"),
                     close_stream=True)
    bus.attach_sink(sink)
    bus.emit(StreamHeader(source_file="<test>"))
    obs = Instrumentation(sink=bus, heartbeat_interval=heartbeat)
    engine = Engine(schema, program, instrumentation=obs)
    engine.run(FactSetLike(), Semantics.INFLATIONARY)
    obs.close()
    return path


class TestFollowFileSink:
    def test_writes_flushed_jsonl(self, tmp_path):
        path = tmp_path / "follow.jsonl"
        sink = FollowFileSink(str(path))
        sink.emit(_beat(1))
        # flushed per event: visible before close
        assert json.loads(path.read_text().splitlines()[0])
        sink.close()

    def test_serve_telemetry_falls_back_for_jsonl_paths(self, tmp_path):
        bus = EventBus()
        out = serve_telemetry(bus, str(tmp_path / "t.jsonl"))
        try:
            assert isinstance(out, FollowFileSink)
        finally:
            out.close()


class TestTailView:
    def test_aggregates_rule_fires_into_run_end_summary(self):
        view = TailView()
        assert view.line(event_to_dict(_rule_fired())) is None
        end = view.line({
            "event": "run-end", "iterations": 3, "facts": 5,
            "inventions": 0, "elapsed": 0.01,
        })
        assert "r0=1" in end
        assert "3 iteration(s)" in end

    def test_heartbeat_line(self):
        view = TailView()
        line = view.line(event_to_dict(_beat(4, facts=12)))
        assert "iter 4" in line
        assert "12" in line


class TestTailStream:
    def test_text_rendering_of_recorded_run(self, tmp_path, capsys):
        path = _record_run(tmp_path / "run.jsonl")
        out = io.StringIO()
        assert tail_stream(str(path), out=out) == 0
        text = out.getvalue()
        assert "run" in text
        assert "run done" in text

    def test_json_format_reemits_schema_stamped_lines(self, tmp_path):
        path = _record_run(tmp_path / "run.jsonl")
        out = io.StringIO()
        assert tail_stream(str(path), out=out, format="json") == 0
        lines = [json.loads(l) for l in
                 out.getvalue().strip().split("\n")]
        assert lines[0]["event"] == "stream-header"
        assert lines[0]["schema_version"] == 1
        kinds = {l["event"] for l in lines}
        assert "run-start" in kinds and "run-end" in kinds

    def test_kind_filter(self, tmp_path):
        path = _record_run(tmp_path / "run.jsonl", heartbeat=0.0)
        out = io.StringIO()
        assert tail_stream(str(path), out=out, format="json",
                           kinds=["heartbeat"]) == 0
        for line in out.getvalue().strip().split("\n"):
            assert json.loads(line)["event"] == "heartbeat"

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert tail_stream(str(tmp_path / "nope.jsonl"),
                           connect_timeout=0.1) == 2

    def test_cli_tail_command(self, tmp_path, capsys):
        path = _record_run(tmp_path / "run.jsonl")
        assert main(["tail", str(path)]) == 0
        assert "run done" in capsys.readouterr().out


@pytest.mark.skipif(not unix_sockets_supported(),
                    reason="AF_UNIX not available")
class TestTelemetryServer:
    def test_client_receives_stream_over_socket(self, tmp_path):
        schema, program = _load()
        sock_path = str(tmp_path / "t.sock")
        bus = EventBus()
        server = TelemetryServer(bus, sock_path)
        try:
            # connect BEFORE the run: replay + live delivery covers it
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.settimeout(10)
            client.connect(sock_path)
            # the acceptor registers the subscription asynchronously:
            # wait for it so the whole run is delivered live
            import time as _time

            for _ in range(200):
                if bus.stats()["subscribers"]:
                    break
                _time.sleep(0.01)
            assert bus.stats()["subscribers"]
            obs = Instrumentation(sink=bus, heartbeat_interval=0.0)
            engine = Engine(schema, program, instrumentation=obs)
            engine.run(FactSetLike(), Semantics.INFLATIONARY)
            obs.close()
            server.close()
            payload = b""
            while True:
                try:
                    chunk = client.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                payload += chunk
            client.close()
        finally:
            server.close()
        lines = [json.loads(l) for l in
                 payload.decode().strip().split("\n")]
        kinds = [l["event"] for l in lines]
        assert "run-start" in kinds
        assert "heartbeat" in kinds
        assert "run-end" in kinds

    def test_socket_removed_on_close(self, tmp_path):
        sock_path = str(tmp_path / "t.sock")
        bus = EventBus()
        server = TelemetryServer(bus, sock_path)
        assert os.path.exists(sock_path)
        server.close()
        assert not os.path.exists(sock_path)

    def test_cli_run_and_tail_over_socket(self, tmp_path, capsys):
        # a chain long enough that the run outlives the tail's 50ms
        # connect poll: the tail must attach while the run is live
        facts = "\n".join(
            f'  parent(par "n{i}", chil "n{i + 1}").'
            for i in range(150)
        )
        source = tmp_path / "tc.logres"
        source.write_text(TC_SOURCE.replace(
            'rules\n', 'rules\n' + facts + '\n', 1,
        ))
        sock_path = str(tmp_path / "t.sock")
        results = {}
        out = io.StringIO()

        # the tail launches FIRST and waits for the socket to appear,
        # so even an instantly-finishing run is fully observed
        def tail():
            results["tail"] = tail_stream(
                sock_path, out=out, format="json", connect_timeout=10,
            )

        t = threading.Thread(target=tail)
        t.start()
        results["run"] = main([
            "run", str(source), "--telemetry-listen", sock_path,
            "--heartbeat", "0",
        ])
        t.join(timeout=30)
        assert results == {"run": 0, "tail": 0}
        kinds = [json.loads(l)["event"]
                 for l in out.getvalue().strip().split("\n")]
        assert "run-end" in kinds


# ---------------------------------------------------------------------------
# run reports carry the envelope
# ---------------------------------------------------------------------------
class TestReportEnvelope:
    def test_report_records_run_id_and_bus_stats(self):
        from repro.observability.report import build_run_report

        schema, program = _load()
        bus = EventBus()
        obs = Instrumentation(metrics=MetricsRegistry(), sink=bus)
        engine = Engine(schema, program, instrumentation=obs)
        engine.run(FactSetLike(), Semantics.INFLATIONARY)
        report = build_run_report(engine, obs, semantics="inflationary")
        assert report.run_id == obs.trace.run_id
        assert report.telemetry["published"] > 0
        payload = report.to_dict()
        assert payload["run_id"] == report.run_id

    def test_from_dict_tolerates_missing_envelope(self):
        from repro.observability.report import RunReport

        report = RunReport.from_dict({
            "schema_version": 1, "kind": "run-report",
        })
        assert report.run_id is None
        assert report.telemetry == {}

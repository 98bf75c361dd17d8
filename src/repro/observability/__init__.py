"""Engine observability: metrics, structured events, timing spans.

The instrumentation subsystem Section 5 promises ("tools supporting the
design, debugging, and monitoring of LOGRES databases and programs"),
built dependency-free:

* :mod:`repro.observability.metrics` — the one registry: counters,
  gauges and streaming p50/p95/p99 histograms keyed by (rule, stratum,
  predicate), and the Prometheus text exposition;
* :mod:`repro.observability.events` — the :class:`EngineEvent` stream
  (run / stratum / iteration / rule-fire / invention / deletion /
  constraint-violation), JSONL round-trippable;
* :mod:`repro.observability.sink` — pluggable sinks (null, collector,
  JSONL, human text, fan-out);
* :mod:`repro.observability.timing` — nested monotonic timing spans;
* :mod:`repro.observability.instrument` — the facade the engine emits
  through, with a zero-overhead disabled fast path;
* :mod:`repro.observability.profile` — ranked per-rule profiles;
* :mod:`repro.observability.report` — the persistent
  :class:`RunReport` artifact ``repro run --report-out`` writes;
* :mod:`repro.observability.diff` — per-rule / per-phase deltas
  between two run reports (``repro diff``);
* :mod:`repro.observability.chrome` — Chrome-trace (Perfetto) export
  of the phase tree;
* :mod:`repro.observability.whynot` — why-not provenance for absent
  facts (``repro explain --why-not``);
* :mod:`repro.observability.bus` — the bounded in-process pub/sub
  :class:`EventBus` every sink and live consumer rides, with
  per-subscriber filters, retention replay and drop accounting;
* :mod:`repro.observability.telemetry_server` — the Unix-socket NDJSON
  attach surface of ``repro run --telemetry-listen``;
* :mod:`repro.observability.tail` — the ``repro tail`` reader and live
  per-stratum / per-rule renderer;
* :mod:`repro.observability.trend` — the perf-telemetry store over the
  ``BENCH_*.json`` history and the ``repro bench report`` trend gate.

(profile / report / diff / whynot / telemetry_server / tail are imported
directly, not re-exported here, to avoid importing the engine or socket
machinery at package-init time.)

See ``docs/OBSERVABILITY.md`` for the event taxonomy and the metrics
catalogue.
"""

from repro.observability.bus import (
    BusSubscription,
    EventBus,
    EventFilter,
    build_filter,
)
from repro.observability.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    ConstraintViolated,
    EngineEvent,
    FactDeleted,
    Heartbeat,
    IterationFinished,
    IterationStarted,
    OidInvented,
    RuleFired,
    RunFinished,
    RunStarted,
    ServerRequest,
    StratumFinished,
    StratumStarted,
    StreamHeader,
    TraceContext,
    event_from_dict,
    event_to_dict,
    new_run_id,
    payload_header,
)
from repro.observability.instrument import (
    NULL_INSTRUMENTATION,
    Instrumentation,
)
from repro.observability.metrics import (
    IndexStats,
    MetricsRegistry,
    StreamingHistogram,
    labels,
    render_prometheus,
)
from repro.observability.sink import (
    NULL_SINK,
    CollectorSink,
    EventSink,
    JsonlSink,
    MultiSink,
    NullSink,
    TextSink,
    read_jsonl,
)
from repro.observability.timing import PhaseTimer
from repro.observability.trend import (
    TrendSeries,
    TrendStore,
    append_bench_rows,
    find_regressions,
    read_bench_rows,
    render_trend_text,
    trend_prometheus,
    trend_report,
)

__all__ = [
    "EVENT_TYPES",
    "BusSubscription",
    "CollectorSink",
    "ConstraintViolated",
    "EngineEvent",
    "EventBus",
    "EventFilter",
    "EventSink",
    "FactDeleted",
    "Heartbeat",
    "IndexStats",
    "Instrumentation",
    "IterationFinished",
    "IterationStarted",
    "JsonlSink",
    "MetricsRegistry",
    "MultiSink",
    "NULL_INSTRUMENTATION",
    "NULL_SINK",
    "NullSink",
    "OidInvented",
    "PhaseTimer",
    "RuleFired",
    "RunFinished",
    "RunStarted",
    "SCHEMA_VERSION",
    "ServerRequest",
    "StratumFinished",
    "StratumStarted",
    "StreamHeader",
    "StreamingHistogram",
    "TextSink",
    "TraceContext",
    "TrendSeries",
    "TrendStore",
    "append_bench_rows",
    "build_filter",
    "find_regressions",
    "read_bench_rows",
    "render_trend_text",
    "trend_prometheus",
    "trend_report",
    "event_from_dict",
    "event_to_dict",
    "labels",
    "new_run_id",
    "payload_header",
    "read_jsonl",
    "render_prometheus",
]

"""The perf-telemetry store: ``BENCH_*.json`` history as time series.

Every benchmark session — the pytest suite via ``benchmarks/conftest``
and every ``repro bench`` matrix sweep — appends schema-versioned rows
to ``BENCH_<exp>.json`` files at the repo root.  This module is the one
reader and writer of that history:

* :func:`read_bench_rows` — **tolerant** ingestion: malformed lines,
  non-row payloads and wrong-``schema_version`` rows are skipped with a
  rendered warning instead of a traceback, so one corrupt line never
  takes down the gate;
* :func:`append_bench_rows` — the shared deduplicating append: a
  trailing session block whose rows are all superseded by the new
  session is replaced instead of stacked, and unparseable lines already
  in the file are preserved verbatim;
* :class:`TrendStore` — all historical rows folded into per-
  ``(exp, name, config)`` series, each backed by a
  :class:`~repro.observability.metrics.StreamingHistogram` of its
  min-times, so quantiles come from the registry's streaming
  histograms rather than per-sample storage;
* :func:`find_regressions` / :func:`trend_report` — the trend gate:
  a series regresses when its latest min-time exceeds the rolling
  median of the preceding window by more than ``threshold`` *and* by
  more than ``min_time_ms`` absolute (the same two-sided rule
  ``repro diff`` applies to per-rule timings, with wider defaults
  because cross-session noise dwarfs within-run noise);
* :func:`render_trend_text` / :func:`trend_prometheus` — the human and
  scrape renderings behind ``repro bench report``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from dataclasses import dataclass, field

from repro.observability.events import (
    SCHEMA_VERSION,
    new_run_id,
    payload_header,
)
from repro.observability.metrics import (
    MetricsRegistry,
    StreamingHistogram,
    render_prometheus,
)

BENCH_KIND = "bench-row"
TREND_KIND = "bench-trend"

#: trend-gate defaults: wider than ``repro diff``'s within-run rule
#: (0.25 / 1 ms) because points in one series come from different
#: sessions — possibly days apart on a differently loaded machine
DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_TIME_MS = 5.0
#: how many *prior* points feed the rolling median baseline
DEFAULT_WINDOW = 5
#: a series shorter than this never flags (no baseline to trust)
DEFAULT_MIN_POINTS = 3


def series_key(row: dict) -> tuple:
    """What makes two rows one time series: experiment, benchmark name
    and the exact engine configuration measured."""
    return (
        row.get("exp"),
        row.get("name"),
        json.dumps(row.get("config"), sort_keys=True),
    )


# ---------------------------------------------------------------------------
# tolerant ingestion
# ---------------------------------------------------------------------------
def parse_bench_line(line: str, where: str) -> tuple[dict | None, str | None]:
    """``(row, warning)`` for one history line — exactly one is set.

    A row is accepted when it parses to a dict whose ``schema_version``
    is absent (pre-header history) or <= ours and whose ``kind`` is
    absent or :data:`BENCH_KIND`; anything else yields a warning string.
    """
    try:
        row = json.loads(line)
    except ValueError as exc:
        return None, f"{where}: unparseable row skipped ({exc})"
    if not isinstance(row, dict):
        return None, f"{where}: non-object row skipped"
    version = row.get("schema_version")
    if version is not None and (
        not isinstance(version, int) or version > SCHEMA_VERSION
    ):
        return None, (
            f"{where}: schema_version {version!r} row skipped"
            f" (this build reads up to {SCHEMA_VERSION})"
        )
    kind = row.get("kind")
    if kind is not None and kind != BENCH_KIND:
        return None, f"{where}: kind {kind!r} row skipped"
    if not isinstance(row.get("min_ms"), (int, float)):
        return None, f"{where}: row without numeric min_ms skipped"
    return row, None


def read_bench_rows(path) -> tuple[list[dict], list[str]]:
    """All ingestible rows of one ``BENCH_*.json`` file plus the
    warnings for every line that was skipped."""
    path = pathlib.Path(path)
    rows: list[dict] = []
    warnings: list[str] = []
    if not path.exists():
        return rows, warnings
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            row, warning = parse_bench_line(
                line, f"{path.name}:{lineno}")
            if row is not None:
                rows.append(row)
            else:
                warnings.append(warning)
    return rows, warnings


# ---------------------------------------------------------------------------
# deduplicating append
# ---------------------------------------------------------------------------
def append_bench_rows(path, rows: list[dict]) -> pathlib.Path:
    """Append one session's rows to ``path``, superseding that same
    session's earlier measurements of the same series.

    Appending is idempotent *within* a session: an existing row whose
    ``(series, session)`` pair is re-measured by the new batch is
    dropped (and duplicate keys within the batch collapse to the last
    row), so re-running a suite or a matrix in one session keeps one
    row per cell instead of stacking.  Rows from **other** sessions are
    history — they always stack; that accumulation is what the
    :class:`TrendStore` trends over.  Lines that do not parse as bench
    rows are preserved verbatim (ingestion warns about them; appending
    never destroys them).
    """
    path = pathlib.Path(path)
    deduped: dict[tuple, dict] = {}
    for row in rows:
        deduped[series_key(row)] = row
    new_rows = list(deduped.values())
    superseded = {
        (series_key(row), row.get("session")) for row in new_rows
    }

    kept_lines: list[str] = []
    if path.exists():
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                row, _ = parse_bench_line(line, path.name)
                if row is not None and (
                    series_key(row), row.get("session")
                ) in superseded:
                    continue
                kept_lines.append(line.rstrip("\n"))
    with open(path, "w", encoding="utf-8") as f:
        for line in kept_lines:
            f.write(line + "\n")
        for row in new_rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------
@dataclass
class TrendSeries:
    """One benchmark's history under one engine configuration."""

    exp: str
    name: str
    config: dict | None
    #: ``(ts, session, min_ms)`` in file order — file order *is* time
    #: order for an append-only history
    points: list[tuple[float, str | None, float]] = field(
        default_factory=list)
    #: streaming quantiles over every min-time (seconds)
    hist: StreamingHistogram = field(default_factory=StreamingHistogram)

    def add(self, row: dict) -> None:
        min_ms = float(row["min_ms"])
        self.points.append(
            (float(row.get("ts") or 0.0), row.get("session"), min_ms))
        self.hist.observe(min_ms / 1000.0)

    @property
    def latest_ms(self) -> float:
        return self.points[-1][2]

    def baseline_ms(self, window: int) -> float | None:
        """Median min-time of up to ``window`` points preceding the
        latest; None when the series has no prior points."""
        prior = [ms for _, _, ms in self.points[:-1]][-window:]
        if not prior:
            return None
        return statistics.median(prior)

    def to_dict(self, window: int = DEFAULT_WINDOW) -> dict:
        baseline = self.baseline_ms(window)
        return {
            "exp": self.exp,
            "name": self.name,
            "config": self.config,
            "points": len(self.points),
            "latest_ms": self.latest_ms,
            "baseline_ms": baseline,
            "min_ms": (self.hist.min * 1000.0 if self.hist.count
                       else 0.0),
            "p50_ms": self.hist.quantile(0.5) * 1000.0,
            "p95_ms": self.hist.quantile(0.95) * 1000.0,
        }


class TrendStore:
    """Every historical bench row, folded into per-series state."""

    def __init__(self):
        self.series: dict[tuple, TrendSeries] = {}
        self.warnings: list[str] = []
        self.sources: list[pathlib.Path] = []

    def add_row(self, row: dict) -> None:
        key = series_key(row)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = TrendSeries(
                exp=str(row.get("exp") or "ungrouped"),
                name=str(row.get("name") or "?"),
                config=row.get("config"),
            )
        series.add(row)

    @classmethod
    def load(cls, root) -> "TrendStore":
        """Ingest every ``BENCH_*.json`` under ``root`` (sorted, so the
        store is deterministic for a given tree)."""
        store = cls()
        root = pathlib.Path(root)
        for path in sorted(root.glob("BENCH_*.json")):
            rows, warnings = read_bench_rows(path)
            store.sources.append(path)
            store.warnings.extend(warnings)
            for row in rows:
                store.add_row(row)
        return store

    def ordered(self) -> list[TrendSeries]:
        return [self.series[k] for k in sorted(
            self.series, key=lambda k: (k[0] or "", k[1] or "", k[2]))]


# ---------------------------------------------------------------------------
# the trend gate
# ---------------------------------------------------------------------------
@dataclass
class TrendFlag:
    """One flagged series: latest vs rolling-median baseline."""

    series: TrendSeries
    latest_ms: float
    baseline_ms: float

    @property
    def ratio(self) -> float:
        return (self.latest_ms / self.baseline_ms
                if self.baseline_ms else float("inf"))

    def to_dict(self) -> dict:
        return {
            "exp": self.series.exp,
            "name": self.series.name,
            "config": self.series.config,
            "latest_ms": self.latest_ms,
            "baseline_ms": self.baseline_ms,
            "ratio": self.ratio,
            "points": len(self.series.points),
        }


def find_regressions(
    store: TrendStore,
    threshold: float = DEFAULT_THRESHOLD,
    min_time_ms: float = DEFAULT_MIN_TIME_MS,
    window: int = DEFAULT_WINDOW,
    min_points: int = DEFAULT_MIN_POINTS,
) -> list[TrendFlag]:
    """Series whose latest point regressed against its own history.

    The two-sided rule of ``repro diff``: a series flags only when the
    latest min-time is both ``1 + threshold`` times the rolling median
    of the preceding ``window`` points *and* more than ``min_time_ms``
    above it — microbenchmark jitter cannot trip the ratio, and a real
    slowdown cannot hide under the floor.
    """
    flags: list[TrendFlag] = []
    for series in store.ordered():
        if len(series.points) < max(2, min_points):
            continue
        baseline = series.baseline_ms(window)
        if baseline is None:
            continue
        latest = series.latest_ms
        if (latest > baseline * (1 + threshold)
                and latest - baseline > min_time_ms):
            flags.append(TrendFlag(series, latest, baseline))
    flags.sort(key=lambda f: f.ratio, reverse=True)
    return flags


def trend_report(
    store: TrendStore,
    threshold: float = DEFAULT_THRESHOLD,
    min_time_ms: float = DEFAULT_MIN_TIME_MS,
    window: int = DEFAULT_WINDOW,
    min_points: int = DEFAULT_MIN_POINTS,
) -> dict:
    """The ``repro bench report`` JSON payload: versioned header,
    trace-context run id, per-series summaries, flagged regressions and
    every ingestion warning."""
    flags = find_regressions(store, threshold, min_time_ms, window,
                             min_points)
    out = payload_header(TREND_KIND)
    out.update({
        "run_id": new_run_id(),
        "sources": [p.name for p in store.sources],
        "thresholds": {
            "threshold": threshold,
            "min_time_ms": min_time_ms,
            "window": window,
            "min_points": min_points,
        },
        "series": [s.to_dict(window) for s in store.ordered()],
        "regressions": [f.to_dict() for f in flags],
        "warnings": list(store.warnings),
    })
    return out


def render_trend_text(report: dict) -> str:
    """Human rendering of a :func:`trend_report` payload."""
    lines: list[str] = []
    thresholds = report.get("thresholds", {})
    series = report.get("series", [])
    lines.append(
        f"bench trends: {len(series)} series from "
        + (", ".join(report.get("sources", [])) or "no history")
    )
    for warning in report.get("warnings", []):
        lines.append(f"  warning: {warning}")
    for row in series:
        config = row.get("config") or {}
        kernel = config.get("kernel", "-") if isinstance(config, dict) \
            else "-"
        baseline = row.get("baseline_ms")
        baseline_txt = (f"{baseline:9.2f}" if baseline is not None
                        else "        -")
        lines.append(
            f"  {row['exp']:<10} {row['name']:<28} {kernel:<12}"
            f" n={row['points']:<3} latest {row['latest_ms']:9.2f} ms"
            f"  median {baseline_txt} ms  p95 {row['p95_ms']:9.2f} ms"
        )
    regressions = report.get("regressions", [])
    if regressions:
        lines.append(
            f"TREND REGRESSIONS ({len(regressions)}) — latest vs"
            f" rolling median, threshold"
            f" {thresholds.get('threshold', 0):+.0%}, floor"
            f" {thresholds.get('min_time_ms', 0):g} ms:"
        )
        for flag in regressions:
            config = flag.get("config") or {}
            kernel = config.get("kernel", "-") \
                if isinstance(config, dict) else "-"
            lines.append(
                f"  {flag['exp']}/{flag['name']} [{kernel}]:"
                f" {flag['baseline_ms']:.2f} ms -> "
                f"{flag['latest_ms']:.2f} ms ({flag['ratio']:.2f}x)"
            )
    else:
        lines.append("no trend regressions.")
    return "\n".join(lines) + "\n"


def trend_prometheus(store: TrendStore,
                     window: int = DEFAULT_WINDOW) -> str:
    """The store as a Prometheus exposition: per-series latest/baseline
    gauges plus the full streaming min-time histograms."""
    registry = MetricsRegistry()
    for series in store.ordered():
        config = series.config if isinstance(series.config, dict) else {}
        labels = (
            ("exp", series.exp),
            ("name", series.name),
            ("kernel", str(config.get("kernel", ""))),
            ("semantics", str(config.get("semantics", ""))),
        )
        registry.set_gauge("bench_latest_ms", labels, series.latest_ms)
        baseline = series.baseline_ms(window)
        if baseline is not None:
            registry.set_gauge("bench_baseline_ms", labels, baseline)
        for _, _, min_ms in series.points:
            registry.observe("bench_min_time_seconds", labels,
                             min_ms / 1000.0)
    return render_prometheus(registry)

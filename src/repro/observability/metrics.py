"""Zero-dependency metrics: counters, gauges, streaming histograms and
their Prometheus text exposition.

A :class:`MetricsRegistry` holds every metric of one instrumented run
(or of one server), keyed by metric name plus a tuple of
``(label, value)`` pairs — the same dimensional model Prometheus uses,
flattened to plain dicts so a snapshot serializes with :mod:`json`
alone.  The engine labels its metrics by rule index, stratum and
predicate, which is what the ``repro profile`` table is built from.

Counters only ever increase, gauges record the last value set, and every
observation feeds a :class:`StreamingHistogram`: fixed cumulative
buckets (Prometheus ``le`` semantics) with p50/p95/p99 estimated by
linear interpolation inside the owning bucket, and no per-sample
storage.  One lock guards every write and every whole-registry read, so
the threaded HTTP server's handlers share one registry without losing
increments.

:func:`render_prometheus` is the text exposition (version 0.0.4) that
``repro run --prom-out`` and the server's ``GET /metrics`` write.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

Labels = tuple[tuple[str, str], ...]

#: bucket upper bounds of every histogram (seconds for timings):
#: exponential 100µs → ~13s, the span of one iteration to one long run
DEFAULT_TIME_BUCKETS: tuple[float, ...] = tuple(
    0.0001 * (2 ** i) for i in range(18)
)


def labels(**kwargs) -> Labels:
    """Normalize keyword labels to the registry's canonical key form."""
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


class StreamingHistogram:
    """Fixed-bucket cumulative histogram with interpolated quantiles.

    ``buckets`` are the finite upper bounds (ascending); one implicit
    ``+Inf`` bucket catches the overflow.  A sample lands in the first
    bucket whose bound is >= the value (Prometheus ``le`` convention).
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("bucket bounds must be non-empty ascending")
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1) of the observed samples.

        Linear interpolation across the owning bucket, clamped to the
        observed ``min``/``max`` so a histogram whose samples all share
        one bucket never reports a value outside what it saw.  Empty
        histograms report 0.0.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = (self.bounds[i] if i < len(self.bounds)
                      else self.max)
                lo = max(lo, self.min if seen == 0 else lo)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (rank - seen) / n
                return lo + (hi - lo) * fraction
            seen += n
        return self.max

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` rows, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class IndexStats:
    """Hit/miss accounting for :class:`repro.storage.factset.FactSet`
    hash-index lookups.

    The fact set holds this object by reference (duck-typed, so the
    storage layer never imports the observability package); the
    instrumentation folds the totals into the registry at run end.
    """

    __slots__ = ("hits", "misses", "builds")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.builds = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
        }


class MetricsRegistry:
    """All counters / gauges / histograms of one instrumented run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, Labels], float] = {}
        self._gauges: dict[tuple[str, Labels], float] = {}
        self._histograms: dict[tuple[str, Labels], StreamingHistogram] = {}

    # -- writing -----------------------------------------------------------
    # the counter writes run once per rule valuation in an instrumented
    # run: explicit acquire/release costs half of ``with``
    def inc(self, name: str, label_set: Labels = (), amount: float = 1
            ) -> None:
        key = (name, label_set)
        self._lock.acquire()
        try:
            self._counters[key] = self._counters.get(key, 0) + amount
        finally:
            self._lock.release()

    def inc_series(self, keys: tuple[tuple[str, Labels], ...],
                   amount: float = 1) -> None:
        """``inc`` of every ``(name, label_set)`` key, under one lock
        acquisition (keys prebuilt by the caller)."""
        counters = self._counters
        self._lock.acquire()
        try:
            for key in keys:
                counters[key] = counters.get(key, 0) + amount
        finally:
            self._lock.release()

    def set_gauge(self, name: str, label_set: Labels = (),
                  value: float = 0) -> None:
        with self._lock:
            self._gauges[(name, label_set)] = value

    def observe(self, name: str, label_set: Labels = (),
                value: float = 0.0) -> None:
        key = (name, label_set)
        self._lock.acquire()
        try:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = StreamingHistogram()
            hist.observe(value)
        finally:
            self._lock.release()

    # -- reading -----------------------------------------------------------
    def counter(self, name: str, label_set: Labels = ()) -> float:
        return self._counters.get((name, label_set), 0)

    def gauge(self, name: str, label_set: Labels = ()) -> float | None:
        return self._gauges.get((name, label_set))

    def histogram(self, name: str, label_set: Labels = ()
                  ) -> StreamingHistogram | None:
        return self._histograms.get((name, label_set))

    def counters_named(self, name: str) -> dict[Labels, float]:
        """Every labeled series of one counter name."""
        with self._lock:
            return {
                label_set: value
                for (n, label_set), value in self._counters.items()
                if n == name
            }

    def histograms_named(self, name: str
                         ) -> dict[Labels, StreamingHistogram]:
        with self._lock:
            return {
                label_set: hist
                for (n, label_set), hist in self._histograms.items()
                if n == name
            }

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready dump: ``name{k=v,...}`` keys, scalar values."""
        with self._lock:
            return {
                "counters": {
                    _series(name, ls): value
                    for (name, ls), value in sorted(self._counters.items())
                },
                "gauges": {
                    _series(name, ls): value
                    for (name, ls), value in sorted(self._gauges.items())
                },
                "histograms": {
                    _series(name, ls): hist.to_dict()
                    for (name, ls), hist in sorted(
                        self._histograms.items())
                },
            }


def _series(name: str, label_set: Labels) -> str:
    if not label_set:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_set)
    return f"{name}{{{inner}}}"


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    return f"{namespace}_{_NAME_OK.sub('_', name)}"


def _prom_labels(label_set: Labels) -> str:
    if not label_set:
        return ""
    inner = ",".join(
        f'{_NAME_OK.sub("_", k)}="{_escape(v)}"' for k, v in label_set
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry,
                      namespace: str = "repro") -> str:
    """The registry as Prometheus text exposition format 0.0.4.

    Counters gain the conventional ``_total`` suffix, gauges render
    verbatim and histograms as cumulative ``_bucket{le=...}`` series
    plus ``_count``/``_sum``.
    """
    lines: list[str] = []

    def series_of(mapping):
        by_name: dict[str, list] = {}
        for (name, label_set), value in sorted(mapping.items()):
            by_name.setdefault(name, []).append((label_set, value))
        return by_name

    with registry._lock:
        counters = series_of(registry._counters)
        gauges = series_of(registry._gauges)
        histograms = series_of(registry._histograms)
        for kind, suffix, series in (("counter", "_total", counters),
                                     ("gauge", "", gauges)):
            for name, entries in series.items():
                prom = _prom_name(name, namespace) + suffix
                lines.append(f"# HELP {prom} repro {kind} {name}")
                lines.append(f"# TYPE {prom} {kind}")
                for label_set, value in entries:
                    lines.append(
                        f"{prom}{_prom_labels(label_set)} {_fmt(value)}")
        for name, entries in histograms.items():
            prom = _prom_name(name, namespace)
            lines.append(f"# HELP {prom} repro histogram {name}")
            lines.append(f"# TYPE {prom} histogram")
            for label_set, hist in entries:
                inner = _prom_labels(label_set)
                for bound, cum in hist.cumulative():
                    le = f'le="{_fmt(bound)}"'
                    merged = (inner[:-1] + "," + le + "}" if inner
                              else "{" + le + "}")
                    lines.append(f"{prom}_bucket{merged} {cum}")
                lines.append(f"{prom}_count{inner} {hist.count}")
                lines.append(f"{prom}_sum{inner} {_fmt(hist.total)}")
    return "\n".join(lines) + "\n"

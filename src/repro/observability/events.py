"""The structured engine event stream.

Every observable engine action is one :class:`EngineEvent` dataclass:
run / stratum / iteration boundaries, rule firings, deletions, oid
inventions and constraint violations.  Events carry only JSON-able
fields (so a JSONL stream round-trips exactly through
:func:`event_to_dict` / :func:`event_from_dict`) plus optional *rich*
in-process references — the firing rule, the ground fact, the valuation
— which sinks like :class:`repro.engine.trace.Tracer` consume directly
and which are never serialized.

Rule-level events carry the :class:`repro.span.Span` threaded through
the parser, so a JSONL line points at the ``file:line:column`` of the
firing rule.

Every event additionally carries the **trace-context envelope** —
``run_id`` / ``span_id`` / ``parent_span_id`` — stamped by the
:class:`~repro.observability.instrument.Instrumentation` from its
:class:`TraceContext`.  Boundary pairs (run / stratum / iteration
start+end) share one span id; point events (rule fires, inventions,
heartbeats) carry the enclosing span's id.  The envelope is what lets
streams from concurrent producers (parallel workers, server requests)
merge unambiguously on one telemetry bus.
"""

from __future__ import annotations

import itertools
import os
import time as _time
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

_RICH = {"fact_value", "rule_value", "bindings_value", "violation_value"}
#: envelope fields are omitted from JSONL when unset (no trace context)
_ENVELOPE = ("run_id", "span_id", "parent_span_id")

#: version of every serialized observability payload — the JSONL event
#: stream (via :class:`StreamHeader`), the ``--metrics-out`` snapshot,
#: the profile JSON and the :class:`repro.observability.report.RunReport`
#: artifact.  Bump when a field changes meaning or disappears; consumers
#: (``repro diff``, the CI schema check) refuse payloads from the future.
SCHEMA_VERSION = 1


def payload_header(kind: str) -> dict:
    """The shared two-field header every serialized payload leads with.

    One helper instead of five hand-rolled copies: the lint, analyze,
    profile, report, diff, why-not (and metrics-snapshot) JSON payloads
    all stamp ``schema_version`` + ``kind`` through this, so the header
    cannot drift between surfaces (pinned by tests/test_schema_header.py).
    """
    return {"schema_version": SCHEMA_VERSION, "kind": kind}


_RUN_SEQUENCE = itertools.count(1)


def new_run_id() -> str:
    """A process-unique run identifier: pid, coarse wall-clock and a
    per-process sequence number, so ids from concurrent producers on one
    machine never collide and stay legible in a merged stream."""
    return (f"r{os.getpid():x}-{int(_time.time()) & 0xFFFFFFFF:08x}"
            f"-{next(_RUN_SEQUENCE):x}")


class TraceContext:
    """OTel-style span bookkeeping for one event producer.

    Span ids are a per-run monotonic counter (``s1``, ``s2``, …) — cheap,
    deterministic under a fixed event order, and unique *within* a run;
    cross-run uniqueness comes from pairing them with ``run_id``.
    """

    __slots__ = ("run_id", "_stack", "_next")

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or new_run_id()
        self._stack: list[str] = []
        self._next = 0

    def start_span(self) -> tuple[str, str | None]:
        """Open a span; returns ``(span_id, parent_span_id)``."""
        self._next += 1
        span_id = f"s{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def end_span(self) -> tuple[str, str | None]:
        """Close the innermost span; returns ``(span_id, parent)``."""
        if not self._stack:
            return f"s{self._next}", None
        span_id = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        return span_id, parent

    def end_span_until(self, span_id: str) -> tuple[str, str | None]:
        """Close spans down to *and including* ``span_id`` — the crash
        path: a budget breach can leave stratum/iteration spans open, and
        the run-end event must still close the run's own span."""
        while self._stack:
            if self._stack.pop() == span_id:
                break
        parent = self._stack[-1] if self._stack else None
        return span_id, parent

    def current(self) -> tuple[str | None, str | None]:
        """``(span_id, parent)`` of the innermost open span — what point
        events (rule fires, heartbeats) are stamped with."""
        if not self._stack:
            return None, None
        if len(self._stack) == 1:
            return self._stack[-1], None
        return self._stack[-1], self._stack[-2]


@dataclass(frozen=True)
class EngineEvent:
    """Base of all engine events; ``kind`` names the event type."""

    kind: ClassVar[str] = ""
    run_id: str | None = field(default=None, compare=False)
    span_id: str | None = field(default=None, compare=False)
    parent_span_id: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"event": self.kind}
        for f in fields(self):
            if f.name in _RICH:
                continue
            value = getattr(self, f.name)
            if value is None and f.name in _ENVELOPE:
                continue
            out[f.name] = value
        return out

    def render(self) -> str:
        """One human-readable line (the text sink's format); the trace
        envelope is elided — it is correlation plumbing, not detail."""
        detail = ", ".join(
            f"{k}={v}" for k, v in self.to_dict().items()
            if k != "event" and k not in _ENVELOPE and v is not None
        )
        return f"[{self.kind}] {detail}"


@dataclass(frozen=True)
class StreamHeader(EngineEvent):
    """First line of a serialized event stream: format version and
    provenance, so a JSONL file is self-describing."""

    kind: ClassVar[str] = "stream-header"
    schema_version: int = SCHEMA_VERSION
    source_file: str | None = None


@dataclass(frozen=True)
class RunStarted(EngineEvent):
    kind: ClassVar[str] = "run-start"
    semantics: str = ""
    rules: int = 0


@dataclass(frozen=True)
class RunFinished(EngineEvent):
    kind: ClassVar[str] = "run-end"
    iterations: int = 0
    facts: int = 0
    inventions: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class StratumStarted(EngineEvent):
    kind: ClassVar[str] = "stratum-start"
    index: int = 0
    rules: int = 0


@dataclass(frozen=True)
class StratumFinished(EngineEvent):
    kind: ClassVar[str] = "stratum-end"
    index: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class IterationStarted(EngineEvent):
    kind: ClassVar[str] = "iteration-start"
    number: int = 0


@dataclass(frozen=True)
class IterationFinished(EngineEvent):
    kind: ClassVar[str] = "iteration-end"
    number: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class Heartbeat(EngineEvent):
    """Periodic liveness beacon emitted at iteration boundaries.

    A long fixpoint produces no stratum/run events for seconds or
    minutes; the heartbeat keeps an attached ``repro tail`` informed
    (iteration reached, live facts, invented oids, seconds since run
    start) without the volume of per-rule events.  Cadence is the
    instrumentation's ``heartbeat_interval``."""

    kind: ClassVar[str] = "heartbeat"
    iteration: int = 0
    stratum: int | None = None
    facts: int = 0
    inventions: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class RuleFired(EngineEvent):
    """One fact contributed to Δ⁺ by one rule valuation."""

    kind: ClassVar[str] = "rule-fire"
    rule_index: int = -1
    rule: str = ""
    pred: str = ""
    fact: str = ""
    iteration: int = 0
    file: str | None = None
    line: int | None = None
    column: int | None = None
    fact_value: Any = field(default=None, repr=False, compare=False)
    rule_value: Any = field(default=None, repr=False, compare=False)
    bindings_value: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FactDeleted(EngineEvent):
    """One fact contributed to Δ⁻ by a negated-head rule valuation."""

    kind: ClassVar[str] = "deletion"
    rule_index: int = -1
    rule: str = ""
    pred: str = ""
    fact: str = ""
    iteration: int = 0
    file: str | None = None
    line: int | None = None
    column: int | None = None
    fact_value: Any = field(default=None, repr=False, compare=False)
    rule_value: Any = field(default=None, repr=False, compare=False)
    bindings_value: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class OidInvented(EngineEvent):
    kind: ClassVar[str] = "invention"
    rule_index: int = -1
    rule: str = ""
    oid: str = ""
    iteration: int = 0
    file: str | None = None
    line: int | None = None
    column: int | None = None


@dataclass(frozen=True)
class ConstraintViolated(EngineEvent):
    kind: ClassVar[str] = "constraint-violation"
    violation_kind: str = ""
    predicate: str = ""
    message: str = ""
    fact: str | None = None
    violation_value: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class PlanChosen(EngineEvent):
    """The cost-based planner fixed literal orders for a rule set.

    ``plan`` is the full :meth:`repro.engine.planner.Plan.to_dict`
    payload: per-rule literal order, access paths and cost estimates,
    so the JSONL stream records *why* the engine evaluated bodies in
    the order it did."""

    kind: ClassVar[str] = "plan"
    semantics: str = ""
    stratum: int | None = None
    rules: int = 0
    plan: dict = field(default_factory=dict)

    def render(self) -> str:  # the full plan dict is too big for one line
        where = f" stratum={self.stratum}" if self.stratum is not None else ""
        return f"[plan] semantics={self.semantics}{where} rules={self.rules}"


@dataclass(frozen=True)
class ServerRequest(EngineEvent):
    """One HTTP request served by ``repro serve`` (``docs/SERVE.md``).

    ``run_id`` in the envelope is the per-request trace id the server
    mints at admission, so a request's bus events correlate with the
    response's ``X-Repro-Run-Id`` header."""

    kind: ClassVar[str] = "server-request"
    method: str = ""
    path: str = ""
    op: str = ""
    db: str | None = None
    tenant: str | None = None
    status: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class ModuleRollback(EngineEvent):
    """A transactional module application failed and was rolled back to
    the pre-apply savepoint (``docs/ROBUSTNESS.md``)."""

    kind: ClassVar[str] = "module-rollback"
    module: str = ""
    mode: str = ""
    reason: str = ""
    error: str = ""
    restored: bool = True


EVENT_TYPES: dict[str, type[EngineEvent]] = {
    cls.kind: cls
    for cls in (
        StreamHeader,
        RunStarted, RunFinished,
        StratumStarted, StratumFinished,
        IterationStarted, IterationFinished,
        RuleFired, FactDeleted, OidInvented,
        ConstraintViolated, ModuleRollback, PlanChosen,
        Heartbeat, ServerRequest,
    )
}


def event_to_dict(event: EngineEvent) -> dict:
    return event.to_dict()


def event_from_dict(payload: dict) -> EngineEvent:
    """Rebuild an event from its JSONL dict (rich references are lost)."""
    kind = payload.get("event")
    cls = EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown engine event kind {kind!r}")
    kwargs = {
        f.name: payload[f.name]
        for f in fields(cls)
        if f.name not in _RICH and f.name in payload
    }
    return cls(**kwargs)

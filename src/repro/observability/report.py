"""Persistent run reports: the artifact ``repro diff`` compares.

A :class:`RunReport` freezes everything one instrumented run knew about
itself — canonical schema/program hashes, semantics and kernel, the
engine's :class:`~repro.engine.fixpoint.EvalStats`, the ranked per-rule
profile rows, the phase tree and the full metrics snapshot — in a
versioned JSON document.  ``repro run --report-out`` writes one, every
benchmark session writes one for the reference workload, and
``repro diff`` (:mod:`repro.observability.diff`) computes per-rule and
per-phase deltas between two of them, which is how the perf trajectory
in ``BENCH_*.json`` stays honest across PRs.

The document layout is documented in ``docs/OBSERVABILITY.md``; the
``schema_version`` field (shared with every other observability
payload) gates loading, so a report written by a future format is
rejected instead of silently mis-diffed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.observability.events import SCHEMA_VERSION, payload_header

REPORT_KIND = "run-report"


@dataclass
class RunReport:
    """One run's persistent observability record."""

    source_file: str | None
    schema_hash: str
    program_hash: str
    semantics: str
    kernel: str
    created: float = 0.0
    stats: dict = field(default_factory=dict)
    rules: list[dict] = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: the active EvalConfig switches (kernel/plan/seminaive/use_indexes)
    config: dict = field(default_factory=dict)
    #: planner output, one dict per fixpoint scope (empty when plan=off)
    plans: list[dict] = field(default_factory=list)
    #: the trace-context run id every event of this run was stamped with
    run_id: str | None = None
    #: telemetry-bus accounting (published / per-subscriber drops), only
    #: present when the run served live telemetry
    telemetry: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = payload_header(REPORT_KIND)
        out.update({
            "created": self.created,
            "source_file": self.source_file,
            "schema_hash": self.schema_hash,
            "program_hash": self.program_hash,
            "semantics": self.semantics,
            "kernel": self.kernel,
            "stats": self.stats,
            "rules": self.rules,
            "phases": self.phases,
            "metrics": self.metrics,
            "config": self.config,
            "plans": self.plans,
        })
        if self.run_id is not None:
            out["run_id"] = self.run_id
        if self.telemetry:
            out["telemetry"] = self.telemetry
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.dumps())
            f.write("\n")

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        version = payload.get("schema_version")
        if version is None or version > SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run-report schema version {version!r}"
                f" (this build reads up to {SCHEMA_VERSION})"
            )
        if payload.get("kind") != REPORT_KIND:
            raise ValueError(
                f"not a run report: kind={payload.get('kind')!r}"
            )
        # tolerant load: every field beyond the header is optional, so a
        # report written before (or after, same major version) a field
        # was introduced — run_id, telemetry — still diffs cleanly
        return cls(
            source_file=payload.get("source_file"),
            schema_hash=payload.get("schema_hash", ""),
            program_hash=payload.get("program_hash", ""),
            semantics=payload.get("semantics", ""),
            kernel=payload.get("kernel", ""),
            created=payload.get("created", 0.0),
            stats=payload.get("stats", {}),
            rules=payload.get("rules", []),
            phases=payload.get("phases", {}),
            metrics=payload.get("metrics", {}),
            config=payload.get("config", {}),
            plans=payload.get("plans", []),
            run_id=payload.get("run_id"),
            telemetry=payload.get("telemetry", {}),
        )


def load_report(path) -> RunReport:
    with open(path, encoding="utf-8") as f:
        return RunReport.from_dict(json.load(f))


def fingerprint(text: str) -> str:
    """Stable short hash of a canonical rendering."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def build_run_report(
    engine,
    obs,
    semantics: str,
    kernel: str = "incremental",
    source_file: str | None = None,
) -> RunReport:
    """Fold an instrumented engine run into a :class:`RunReport`.

    ``engine`` must have completed a run under ``obs`` (an enabled,
    metrics-carrying :class:`~repro.observability.Instrumentation`); the
    per-rule rows are the same ones ``repro profile`` ranks, so a report
    and a profile of the same run agree column for column.
    """
    from repro.language.ast import Program
    from repro.language.pretty import render_program, render_schema
    from repro.observability.profile import build_profile

    profile = build_profile(engine, obs)
    stats = engine.stats
    analysis = engine.analysis
    bus_stats = getattr(obs.sink, "stats", None)
    return RunReport(
        run_id=obs.trace.run_id if obs.trace is not None else None,
        telemetry=bus_stats() if bus_stats is not None else {},
        source_file=source_file or obs.source_file,
        schema_hash=fingerprint(render_schema(engine.schema)),
        program_hash=fingerprint(render_program(
            Program(analysis.rules, analysis.goal))),
        semantics=semantics,
        kernel=kernel,
        created=time.time(),
        stats={
            "iterations": stats.iterations,
            "facts": profile.facts,
            "inventions": stats.inventions,
            "strata": stats.strata,
            "used_seminaive": stats.used_seminaive,
            "time_total_ms": stats.time_total * 1000,
            "time_per_iteration_ms": [
                t * 1000 for t in stats.time_per_iteration
            ],
        },
        rules=[row.to_dict() for row in profile.rules],
        phases=obs.timer.to_dict(),
        metrics=profile.metrics,
        config={
            "kernel": kernel,
            "plan": engine.config.plan,
            "seminaive": engine.config.seminaive,
            "use_indexes": engine.config.use_indexes,
        },
        plans=profile.plans,
    )


def report_program(
    schema,
    program,
    edb,
    semantics=None,
    config=None,
    source_file: str | None = None,
    kernel: str | None = None,
) -> RunReport:
    """Evaluate ``(schema, program)`` over ``edb`` under full
    instrumentation and return the finished :class:`RunReport` — the
    one-call harness benchmarks and the regression gate share.

    ``kernel`` names the configuration in the report; when omitted it is
    derived from ``config.incremental`` (the bench matrix passes its
    cell's kernel name — ``compiled`` — explicitly).
    """
    from repro.engine import Engine, Semantics
    from repro.observability.instrument import Instrumentation

    sem = semantics if semantics is not None else Semantics.INFLATIONARY
    obs = Instrumentation.capture(source_file=source_file)
    engine = Engine(schema, program, config=config, instrumentation=obs)
    with obs.phase("fixpoint"):
        engine.run(edb, sem)
    if kernel is None:
        kernel = ("incremental" if config is None or config.incremental
                  else "reference")
    return build_run_report(engine, obs, semantics=sem.value,
                            kernel=kernel, source_file=source_file)

"""Command-line interface: ``python -m repro <command>``.

A small front end over the library, in the spirit of the "complete
programming environment" of Section 5:

* ``run FILE``    — evaluate a LOGRES source unit and print the computed
  instance (and goal answers if the unit has a goal);
* ``check FILE``  — parse, analyze and consistency-check without
  printing the instance; ``--static-only`` skips evaluation;
* ``lint FILES``  — collect-all static analysis: every error and warning
  of every file, as ``file:line:col: severity[CODE]: message`` lines or
  JSON (``--format json``);
* ``fmt FILE``    — reprint the unit in canonical form;
* ``explain FILE FACT`` — evaluate with tracing and print the
  derivation tree of one fact, given as ``pred(label=value, ...)``;
  ``--why-not`` instead explains an *absent* fact: deletion provenance
  plus the best near-miss valuation of every candidate rule;
* ``profile FILE`` — evaluate under full instrumentation and print a
  ranked per-rule cost table (``--format text|json``);
* ``plan FILE``   — print the cost-based planner's chosen literal order
  and per-step estimates for every rule without evaluating
  (``--format text|json``); every evaluating command takes
  ``--plan on|off`` to toggle the planner + compiled bodies;
* ``diff A B``    — compare two run reports: per-rule and per-phase
  deltas, exit 1 on regressions; see ``docs/OBSERVABILITY.md``;
* ``tail PATH``   — attach to the live telemetry of a running ``repro
  run --telemetry-listen PATH`` (or replay a recorded JSONL stream) and
  render a per-stratum / per-rule view; see ``docs/OBSERVABILITY.md``.

``run`` additionally accepts ``--trace-out events.jsonl`` (structured
engine event stream), ``--metrics-out metrics.json`` (metrics + phase
snapshot), ``--report-out report.json`` (the persistent
:class:`~repro.observability.report.RunReport` that ``repro diff``
compares), ``--chrome-out trace.json`` (phase tree in Chrome trace
format, loadable in Perfetto), ``--telemetry-listen PATH`` (live NDJSON
telemetry for ``repro tail``), ``--prom-out metrics.prom`` (Prometheus
text exposition) and ``--heartbeat SECONDS`` (periodic liveness events
at iteration boundaries).

Failures in parsing or analysis are printed as diagnostics
(``file:line:col: error[CODE]: message``), never as tracebacks, and exit
with status 2; interrupted evaluations — an execution-guard breach
(``--timeout`` / ``--max-facts`` / ``--max-oids``) or the iteration
budget — render the same way and exit with status 3.  The full exit-code
convention is documented in ``docs/ROBUSTNESS.md``.

Source units may carry facts as rules (``p(x 1).``); a persisted state
can be supplied with ``--state state.json`` (see ``Database.save``).
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager

from repro.analysis import Diagnostic, Severity, diagnostics_to_json
from repro.analysis.interference import DEFAULT_MAX_PAIRS
from repro.constraints.checker import ConsistencyChecker
from repro.engine import Engine, EvalConfig, ResourceGuard, Semantics
from repro.engine.goals import answer_goal
from repro.engine.guards import BUDGET_CODES
from repro.engine.trace import Tracer
from repro.errors import (
    EvalBudgetExceeded,
    LogresError,
    NonTerminationError,
    ParseError,
    StorageError,
)
from repro.language.parser import parse_source
from repro.language.pretty import render_source
from repro.span import Span
from repro.storage.factset import Fact, FactSet
from repro.storage.persist import loads_state
from repro.values.complex import TupleValue


def _load_unit(path: str, state_path: str | None):
    with open(path, encoding="utf-8") as f:
        unit = parse_source(f.read())
    if state_path:
        with open(state_path, encoding="utf-8") as f:
            schema, edb, program = loads_state(f.read())
        schema = unit.schema(schema)
        rules = program.rules + tuple(unit.rules)
    else:
        schema = unit.schema()
        edb = FactSet()
        rules = tuple(unit.rules)
    from repro.language.ast import Program

    return schema, Program(rules, unit.goal), edb


def _eval_config(args) -> EvalConfig:
    """The :class:`EvalConfig` (and optional guard) the flags request."""
    guard = None
    if (args.timeout is not None or args.max_facts is not None
            or args.max_oids is not None):
        guard = ResourceGuard(
            timeout=args.timeout,
            max_facts=args.max_facts,
            max_inventions=args.max_oids,
        )
    return EvalConfig(
        max_iterations=getattr(args, "max_iterations", 10_000),
        incremental=not getattr(args, "reference", False),
        plan=getattr(args, "plan", "on") != "off",
        guard=guard,
    )


def _write_block(header: str, lines) -> None:
    """Write ``header`` and then each of ``lines`` indented by two
    spaces, one line per ``write``: the bytes a ``print`` per line
    writes, without its per-call overhead.  ``sys.stdout`` is looked up
    here, so a redirected or captured stream sees the output."""
    write = sys.stdout.write
    write(f"{header}\n")
    for line in lines:
        write(f"  {line}\n")


def _print_instance(instance: FactSet) -> None:
    """Every user predicate's facts, sorted by their rendering.

    Each fact is formatted once: sorting the ``repr`` strings orders the
    lines exactly as sorting the facts by ``key=repr`` does, since equal
    keys are identical lines."""
    for pred in instance.predicates():
        if pred.startswith("__"):
            continue
        _write_block(f"{pred} ({instance.count(pred)}):",
                     sorted(instance.reprs_of(pred)))


def _print_answers(answers: list[dict]) -> None:
    """A goal's answers, one ``Var = value, ...`` line each, in order."""
    _write_block(f"{len(answers)} answer(s):", (
        ", ".join(f"{k} = {v!r}" for k, v in sorted(answer.items()))
        for answer in answers
    ))


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector for one batch evaluation.

    The fixpoint allocates many small acyclic objects, so the collector's
    generation-0 passes find nothing to free while reference counting
    frees whatever the engine drops.  The collector is re-enabled on the
    way out only if it was enabled on the way in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _jsonl_sink(path: str, source_file: str | None, header: bool = True):
    """A JSONL event sink whose first line is the stream header.

    With ``header=False`` the caller owns the header — the bus path
    publishes one :class:`StreamHeader` through the bus instead, so the
    retention ring replays it to every late ``repro tail`` attach."""
    from repro.observability import JsonlSink, StreamHeader

    sink = JsonlSink(open(path, "w", encoding="utf-8"),
                     close_stream=True)
    if header:
        sink.emit(StreamHeader(source_file=source_file))
    return sink


def _run_instrumentation(args):
    """The instrumentation ``repro run`` needs for its output flags.

    Returns ``(obs, finish)``: ``obs`` is None when no output flag is
    given (the zero-overhead default), and ``finish()`` flushes the
    ``--trace-out`` / ``--metrics-out`` / ``--prom-out`` files and shuts
    down the telemetry server after the run (``--report-out`` /
    ``--chrome-out`` need the finished engine, so ``cmd_run`` writes
    those itself).

    When live telemetry is requested (``--telemetry-listen`` or
    ``--heartbeat``) the engine's sink becomes an
    :class:`~repro.observability.bus.EventBus`: the ``--trace-out``
    JSONL sink rides the bus as an attached (synchronous, no-drop)
    subscriber, and the telemetry server's clients are bounded queued
    subscriptions that can individually drop without affecting anyone.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    telemetry = getattr(args, "telemetry_listen", None)
    prom_out = getattr(args, "prom_out", None)
    heartbeat = getattr(args, "heartbeat", None)
    # reports fold the metrics registry; chrome traces need the timer,
    # which only an enabled instrumentation carries
    need_metrics = bool(
        metrics_out
        or getattr(args, "report_out", None)
        or getattr(args, "chrome_out", None)
        or prom_out
    )
    need_bus = bool(telemetry or heartbeat is not None)
    if not trace_out and not need_metrics and not need_bus:
        return None, lambda: None
    from repro.observability import (
        EventBus,
        Instrumentation,
        MetricsRegistry,
        StreamHeader,
        StreamingMetrics,
        render_prometheus,
    )

    trace_sink = (_jsonl_sink(trace_out, args.file, header=not need_bus)
                  if trace_out else None)
    bus = None
    server = None
    sink = trace_sink
    if need_bus:
        bus = EventBus()
        if trace_sink is not None:
            bus.attach_sink(trace_sink)
        sink = bus
        # through the bus, not into the sinks directly: the retention
        # ring replays the header to every late tail attach
        bus.emit(StreamHeader(source_file=args.file))
        if telemetry:
            from repro.observability.telemetry_server import (
                serve_telemetry,
            )

            server = serve_telemetry(bus, telemetry)
    if heartbeat is None and telemetry:
        heartbeat = 0.5  # a live attach wants liveness by default
    metrics = None
    if need_metrics:
        # --prom-out upgrades to the streaming registry: windowed rates
        # and real histogram buckets in the exposition
        metrics = StreamingMetrics() if prom_out else MetricsRegistry()
    obs = Instrumentation(
        metrics=metrics,
        sink=sink,
        source_file=args.file,
        heartbeat_interval=heartbeat,
    )

    def finish() -> None:
        if metrics_out:
            import json

            with open(metrics_out, "w", encoding="utf-8") as f:
                json.dump(obs.snapshot(), f, indent=2, sort_keys=True)
                f.write("\n")
        if prom_out:
            with open(prom_out, "w", encoding="utf-8") as f:
                f.write(render_prometheus(obs.metrics))
        # closing the bus ends the stream: attached sinks close, queued
        # subscribers drain and observe end-of-stream; the server then
        # joins its client writers so every tail gets the final events
        obs.close()
        if server is not None:
            server.close()

    return obs, finish


def cmd_run(args) -> int:
    schema, program, edb = _load_unit(args.file, args.state)
    with _cyclic_gc_paused():
        return _run_loaded(args, schema, program, edb)


def _run_loaded(args, schema, program, edb) -> int:
    """``repro run`` after loading: evaluate, write the optional reports,
    print the instance or the goal's answers and the stats line."""
    obs, finish = _run_instrumentation(args)
    engine = Engine(schema, program, _eval_config(args),
                    instrumentation=obs)
    try:
        if obs is not None:
            with obs.phase("fixpoint"):
                instance = engine.run(edb, Semantics(args.semantics))
        else:
            instance = engine.run(edb, Semantics(args.semantics))
    finally:
        finish()
    if args.report_out:
        from repro.observability.report import build_run_report

        build_run_report(
            engine, obs, semantics=args.semantics,
            kernel="reference" if args.reference else "incremental",
            source_file=args.file,
        ).write(args.report_out)
    if args.chrome_out:
        from repro.observability.chrome import write_chrome_trace

        write_chrome_trace(obs.timer.to_dict(), args.chrome_out,
                           process_name=args.file)
    if program.goal is not None:
        _print_answers(answer_goal(program.goal, instance, schema))
    else:
        _print_instance(instance)
    stats = engine.stats
    slowest = max(stats.time_per_iteration, default=0.0)
    print(
        f"-- {stats.iterations} iteration(s),"
        f" {instance.count()} fact(s),"
        f" {stats.inventions} invented oid(s),"
        f" {stats.time_total * 1000:.1f} ms total"
        f" ({slowest * 1000:.1f} ms slowest iteration,"
        f" {'incremental' if not args.reference else 'reference'} kernel)",
        file=sys.stderr,
    )
    return 0


def _print_violations(violations) -> None:
    """Uniform violation reporting: always ``Violation.render()``."""
    print(f"{len(violations)} violation(s):")
    for v in violations:
        print(f"  {v.render()}")


def cmd_profile(args) -> int:
    import json

    from repro.observability.profile import profile_program

    schema, program, edb = _load_unit(args.file, args.state)
    sink = (_jsonl_sink(args.trace_out, args.file)
            if args.trace_out else None)
    try:
        _, profile, obs = profile_program(
            schema, program, edb,
            semantics=Semantics(args.semantics),
            config=_eval_config(args),
            source_file=args.file,
            sink=sink,
        )
        obs.close()
    finally:
        # an aborted evaluation (budget breach, fault injection) must
        # still flush-close the trace so it ends on a complete line
        if sink is not None:
            sink.close()
    if args.chrome_out:
        from repro.observability.chrome import write_chrome_trace

        write_chrome_trace(obs.timer.to_dict(), args.chrome_out,
                           process_name=args.file)
    if args.format == "json":
        print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    else:
        print(profile.render_text())
        phases = obs.timer.render()
        if phases:
            print()
            print("phases:")
            print(phases)
    return 0


def cmd_plan(args) -> int:
    """Print the planner's chosen literal orders without evaluating."""
    import json

    schema, program, edb = _load_unit(args.file, args.state)
    engine = Engine(schema, program, _eval_config(args))
    plans = engine.explain_plan(edb, Semantics(args.semantics))
    if args.format == "json":
        print(json.dumps([p.to_dict() for p in plans], indent=2,
                         sort_keys=True))
    else:
        print("\n\n".join(p.render_text() for p in plans))
    return 0


def cmd_check(args) -> int:
    if args.static_only:
        from repro.analysis import lint_source

        with open(args.file, encoding="utf-8") as f:
            report = lint_source(f.read(), file=args.file)
        for diag in report.errors():
            print(diag.render(), file=sys.stderr)
        if report.has_errors:
            return 1
        print("ok: schema valid, program safe (evaluation skipped)")
        return 0
    schema, program, edb = _load_unit(args.file, args.state)
    # analysis runs in the constructor
    engine = Engine(schema, program, _eval_config(args))
    instance = engine.run(edb, Semantics(args.semantics))
    denials = tuple(r for r in program.rules if r.is_denial)
    violations = ConsistencyChecker(schema, denials).check(instance)
    if violations:
        _print_violations(violations)
        return 1
    print("ok: schema valid, program safe, instance consistent")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import lint_source

    diagnostics = []
    for path in args.files:
        with open(path, encoding="utf-8") as f:
            report = lint_source(f.read(), file=path)
        diagnostics.extend(report.diagnostics)
    if args.format == "json":
        print(diagnostics_to_json(diagnostics))
    else:
        for diag in diagnostics:
            print(diag.render())
        errors = sum(
            1 for d in diagnostics if d.severity is Severity.ERROR
        )
        warnings = sum(
            1 for d in diagnostics if d.severity is Severity.WARNING
        )
        print(
            f"{len(args.files)} file(s): {errors} error(s),"
            f" {warnings} warning(s)",
            file=sys.stderr,
        )
    failing = any(
        d.severity is Severity.ERROR
        or (args.error_on_warning and d.severity is Severity.WARNING)
        for d in diagnostics
    )
    return 1 if failing else 0


def cmd_analyze(args) -> int:
    """Static effect & interference analysis (``repro analyze``).

    Exit codes follow the repo convention (docs/ROBUSTNESS.md): 0 no
    hazards, 1 order hazards found (LG1001–LG1003), 2 static errors
    prevented analysis, 3 the pair budget was exceeded (LG1004 —
    certificates degraded to singletons).
    """
    from repro.analysis import analyze_source

    with open(args.file, encoding="utf-8") as f:
        analysis = analyze_source(
            f.read(), file=args.file, max_pairs=args.max_pairs
        )
    if args.format == "json":
        print(analysis.to_json())
    else:
        print(analysis.render_text())
    if analysis.report.has_errors:
        return 2
    if analysis.budget_exceeded:
        return 3
    return 1 if analysis.has_hazards else 0


def cmd_fmt(args) -> int:
    with open(args.file, encoding="utf-8") as f:
        unit = parse_source(f.read())
    print(render_source(unit.schema(), unit.program()))
    return 0


def cmd_explain(args) -> int:
    # the fact argument has its own error channel: a malformed fact must
    # render as a diagnostic against the pseudo-file ``<fact>``, not get
    # misattributed to the source file by main()'s handler
    try:
        fact = _parse_fact(args.fact)
    except LogresError as exc:
        diagnostics = _diagnostics_of(exc)
        if diagnostics:
            for diag in diagnostics:
                print(diag.with_file("<fact>").render(), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    schema, program, edb = _load_unit(args.file, args.state)
    tracer = Tracer()
    engine = Engine(schema, program, _eval_config(args))
    instance = engine.run(edb, Semantics(args.semantics), tracer=tracer)
    if args.why_not:
        import json

        from repro.observability.whynot import HOLDS, explain_absence

        report = explain_absence(
            engine, instance, fact, tracer=tracer,
            semantics=args.semantics, source_file=args.file,
        )
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render_text())
        return 0 if report.status == HOLDS else 1
    if fact not in instance:
        print(
            f"{fact!r} does not hold in the instance"
            " (use --why-not for an absence explanation)"
        )
        return 1
    print(tracer.explain(fact, instance, engine.schema).render())
    return 0


def _parse_fact(text: str) -> Fact:
    """``pred(label=value, ...)`` parsed with the real lexer.

    Values are full ground terms: numbers (including negatives),
    escaped strings, ``true`` / ``false`` / ``nil``, ``{...}`` sets,
    ``[...]`` multisets, ``<...>`` sequences and nested
    ``(label=value, ...)`` tuples; ``:`` is accepted in place of ``=``
    (the facts' own repr form).  A ``self=N`` field makes a class fact
    with oid ``&N``.
    """
    from repro.language.lexer import tokenize
    from repro.values.complex import (
        MultisetValue,
        SequenceValue,
        SetValue,
    )
    from repro.values.oids import NIL, Oid

    tokens = tokenize(text)
    pos = 0

    def fail(tok, expected: str):
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(
            f"cannot parse fact: expected {expected}, found {found}",
            tok.line, tok.column,
        )

    def take():
        nonlocal pos
        tok = tokens[pos]
        if tok.kind != "eof":
            pos += 1
        return tok

    def expect_symbol(sym: str):
        tok = take()
        if tok.kind != "symbol" or tok.text != sym:
            fail(tok, f"'{sym}'")
        return tok

    def parse_elements(closing: str) -> list:
        elements: list = []
        if tokens[pos].text == closing:
            take()
            return elements
        while True:
            elements.append(parse_value())
            tok = take()
            if tok.kind == "symbol" and tok.text == closing:
                return elements
            if not (tok.kind == "symbol" and tok.text == ","):
                fail(tok, f"',' or '{closing}'")

    def parse_fields() -> dict:
        fields: dict = {}
        if tokens[pos].text == ")":
            take()
            return fields
        while True:
            tok = take()
            if tok.kind not in ("name", "variable", "keyword"):
                fail(tok, "a field label")
            label = tok.text.lower()
            sep = take()
            if not (sep.kind == "symbol" and sep.text in ("=", ":")):
                fail(sep, "'=' or ':'")
            fields[label] = parse_value()
            tok = take()
            if tok.kind == "symbol" and tok.text == ")":
                return fields
            if not (tok.kind == "symbol" and tok.text == ","):
                fail(tok, "',' or ')'")

    def parse_value():
        tok = take()
        if tok.kind in ("number", "string"):
            return tok.value
        if tok.kind == "symbol" and tok.text == "-":
            num = take()
            if num.kind != "number":
                fail(num, "a number after '-'")
            return -num.value
        if tok.kind == "keyword":
            if tok.text == "true":
                return True
            if tok.text == "false":
                return False
            if tok.text == "nil":
                return NIL
            fail(tok, "a value")
        if tok.kind in ("name", "variable"):
            return str(tok.value)  # bare word: a string constant
        if tok.kind == "symbol":
            if tok.text == "{":
                return SetValue(parse_elements("}"))
            if tok.text == "[":
                return MultisetValue(parse_elements("]"))
            if tok.text == "<":
                return SequenceValue(parse_elements(">"))
            if tok.text == "(":
                return TupleValue(parse_fields())
        fail(tok, "a value")

    name = take()
    if name.kind not in ("name", "variable", "keyword"):
        fail(name, "a predicate name")
    expect_symbol("(")
    fields = parse_fields()
    trailing = tokens[pos]
    if trailing.kind != "eof":
        fail(trailing, "end of input")

    oid = None
    if "self" in fields:
        raw = fields.pop("self")
        if isinstance(raw, Oid):
            oid = raw
        elif isinstance(raw, int) and not isinstance(raw, bool):
            oid = Oid(raw)
        else:
            raise ParseError(
                f"cannot parse fact: self must be an oid number,"
                f" got {raw!r}", name.line, name.column,
            )
    return Fact(name.text.lower(), TupleValue(fields), oid=oid)


def cmd_tail(args) -> int:
    """Attach to a live (or recorded) telemetry stream and render it."""
    from repro.observability.tail import tail_stream

    return tail_stream(
        args.path,
        format=args.format,
        kinds=args.kinds,
        follow=args.follow,
        connect_timeout=args.connect_timeout,
    )


def cmd_diff(args) -> int:
    import json

    from repro.observability.diff import diff_reports
    from repro.observability.report import load_report

    try:
        baseline = load_report(args.baseline)
        candidate = load_report(args.candidate)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_reports(
        baseline, candidate,
        threshold=args.threshold,
        min_time_ms=args.min_time_ms,
        strict_counts=args.strict_counts,
        baseline_name=args.baseline,
        candidate_name=args.candidate,
    )
    if args.format == "json":
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render_text())
    return 1 if diff.regressions() else 0


def cmd_bench(args) -> int:
    """Run the benchmark matrix and append BENCH_* rows."""
    from repro.workloads.bench import KERNELS, run_matrix
    from repro.workloads.families import FAMILIES

    families = args.families or list(FAMILIES)
    kernels = args.kernels or (
        list(KERNELS) if args.matrix else ["compiled"])
    scales = args.scales or (
        ["100", "300", "1e3"] if args.matrix else ["100"])
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr))
    try:
        rows, touched = run_matrix(
            families=families,
            scales=scales,
            kernels=kernels,
            semantics=args.semantics,
            seed=args.seed,
            reps=args.reps,
            root=args.root,
            verify=not args.no_verify,
            progress=progress,
        )
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"bench: {len(rows)} cell(s) across {len(families)} family(ies)"
        f" x {len(scales)} scale(s) x {len(kernels)} kernel(s) -> "
        + ", ".join(p.name for p in touched)
    )
    return 0


def cmd_bench_report(args) -> int:
    """Render the perf-trend view over the BENCH_*.json history."""
    import json

    from repro.observability.trend import (
        TrendStore,
        find_regressions,
        render_trend_text,
        trend_prometheus,
        trend_report,
    )

    store = TrendStore.load(args.root)
    report = trend_report(
        store,
        threshold=args.threshold,
        min_time_ms=args.min_time_ms,
        window=args.window,
        min_points=args.min_points,
    )
    if args.prometheus:
        for warning in store.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(trend_prometheus(store, window=args.window), end="")
    elif args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_trend_text(report), end="")
    regressions = find_regressions(
        store, threshold=args.threshold, min_time_ms=args.min_time_ms,
        window=args.window, min_points=args.min_points,
    )
    return 1 if regressions else 0


def cmd_serve(args) -> int:
    """Run the fault-tolerant multi-tenant HTTP server (docs/SERVE.md)."""
    from repro.server import ReproServer, ServerConfig, TenantLimits

    tenant_limits = {}
    for spec in args.tenant_limit or ():
        # NAME:timeout:max_facts:max_inventions — empty field = default
        fields = (spec.split(":") + ["", "", ""])[:4]
        name = fields[0]
        if not name:
            print(f"error: bad --tenant-limit {spec!r}", file=sys.stderr)
            return 2
        tenant_limits[name] = TenantLimits(
            timeout=float(fields[1]) if fields[1] else None,
            max_facts=int(fields[2]) if fields[2] else None,
            max_inventions=int(fields[3]) if fields[3] else None,
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        default_timeout=args.timeout,
        default_max_facts=args.max_facts,
        default_max_inventions=args.max_oids,
        tenant_limits=tenant_limits,
        max_concurrent=args.max_concurrent,
        queue_depth=args.queue_depth,
        queue_timeout=args.queue_timeout,
        retry_after=args.retry_after,
        max_body_bytes=args.max_body_bytes,
        snapshot_interval=args.snapshot_interval,
        drain_deadline=args.drain_deadline,
    )
    server = ReproServer(config)
    host, port = server.start()
    server.install_signal_handlers()
    if args.ready_file:
        # smoke tests wait on this to learn the bound port (port 0)
        with open(args.ready_file, "w", encoding="utf-8") as f:
            f.write(f"{host} {port}\n")
    if not args.quiet:
        print(f"repro serve: listening on http://{host}:{port}"
              f" (data dir {config.data_dir})", file=sys.stderr)
    server.serve_forever()
    if not args.quiet:
        print("repro serve: drained and stopped", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LOGRES (SIGMOD 1990) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="LOGRES source file")
        p.add_argument("--state", help="persisted database state (JSON)")
        p.add_argument(
            "--semantics",
            choices=[s.value for s in Semantics],
            default=Semantics.INFLATIONARY.value,
        )
        # execution guards (docs/ROBUSTNESS.md); a breach exits 3
        p.add_argument(
            "--timeout", type=float, metavar="SECONDS",
            help="wall-clock budget for evaluation",
        )
        p.add_argument(
            "--max-facts", type=int, metavar="N",
            help="budget on live derived facts",
        )
        p.add_argument(
            "--max-oids", type=int, metavar="N",
            help="budget on invented oids",
        )
        p.add_argument(
            "--plan", choices=["on", "off"], default="on",
            help="cost-based rule planning + compiled rule bodies"
                 " (default: on; 'off' restores the dynamic scheduler)",
        )

    p_run = sub.add_parser("run", help="evaluate and print the instance")
    common(p_run)
    p_run.add_argument("--max-iterations", type=int, default=10_000)
    p_run.add_argument(
        "--reference",
        action="store_true",
        help="use the copying reference kernel instead of the"
             " incremental one (for timing comparisons)",
    )
    p_run.add_argument(
        "--trace-out", metavar="FILE",
        help="write the structured engine event stream as JSONL",
    )
    p_run.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the metrics + phase snapshot as JSON",
    )
    p_run.add_argument(
        "--report-out", metavar="FILE",
        help="write a persistent run report (for 'repro diff')",
    )
    p_run.add_argument(
        "--chrome-out", metavar="FILE",
        help="write the phase tree as a Chrome trace (Perfetto)",
    )
    p_run.add_argument(
        "--telemetry-listen", metavar="PATH",
        help="serve the live event stream as NDJSON on a Unix socket at"
             " PATH for 'repro tail' (a *.jsonl PATH, or a platform"
             " without AF_UNIX, writes a followable JSONL file instead)",
    )
    p_run.add_argument(
        "--prom-out", metavar="FILE",
        help="write run metrics in Prometheus text exposition format"
             " (windowed rates and histogram buckets included)",
    )
    p_run.add_argument(
        "--heartbeat", type=float, metavar="SECONDS",
        help="emit heartbeat events at iteration boundaries at this"
             " cadence (default: 0.5 when --telemetry-listen is set)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_tail = sub.add_parser(
        "tail",
        help="attach to a telemetry stream (socket or JSONL file) and"
             " render a live per-stratum / per-rule view",
    )
    p_tail.add_argument(
        "path",
        help="the --telemetry-listen socket of a live run, or a JSONL"
             " event file (recorded, or growing with --follow)",
    )
    p_tail.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text renders the live view; json re-emits the raw events"
             " (default: text)",
    )
    p_tail.add_argument(
        "--follow", action="store_true",
        help="for file paths: poll for growth until run-end"
             " (sockets always stream live)",
    )
    p_tail.add_argument(
        "--kind", action="append", dest="kinds", metavar="KIND",
        help="only show events of this kind (repeatable), e.g."
             " --kind heartbeat --kind stratum-end",
    )
    p_tail.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long to retry connecting to a socket that is not up"
             " yet (default: 10)",
    )
    p_tail.set_defaults(fn=cmd_tail)

    p_profile = sub.add_parser(
        "profile",
        help="evaluate under instrumentation and print per-rule costs",
    )
    common(p_profile)
    p_profile.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style (default: text)",
    )
    p_profile.add_argument(
        "--trace-out", metavar="FILE",
        help="also write the event stream as JSONL",
    )
    p_profile.add_argument(
        "--chrome-out", metavar="FILE",
        help="write the phase tree as a Chrome trace (Perfetto)",
    )
    p_profile.set_defaults(fn=cmd_profile)

    p_plan = sub.add_parser(
        "plan",
        help="show the cost-based plan (literal orders + estimates)"
             " without evaluating",
    )
    common(p_plan)
    p_plan.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style (default: text)",
    )
    p_plan.set_defaults(fn=cmd_plan)

    p_check = sub.add_parser("check", help="analyze and verify consistency")
    common(p_check)
    p_check.add_argument(
        "--static-only",
        action="store_true",
        help="stop after static analysis; do not evaluate the program"
             " or check instance consistency",
    )
    p_check.set_defaults(fn=cmd_check)

    p_analyze = sub.add_parser(
        "analyze",
        help="static effect & interference analysis: per-rule effect"
             " sets, the intra-stratum interference graph, and"
             " independence certificates (order hazards exit 1)",
    )
    p_analyze.add_argument("file", help="LOGRES source file")
    p_analyze.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style (default: text)",
    )
    p_analyze.add_argument(
        "--max-pairs", type=int, default=DEFAULT_MAX_PAIRS,
        help="rule-pair budget for the interference graph; past it"
             " certificates degrade to singletons and the command"
             f" exits 3 (default: {DEFAULT_MAX_PAIRS})",
    )
    p_analyze.set_defaults(fn=cmd_analyze)

    p_lint = sub.add_parser(
        "lint", help="report every error and warning of the given files"
    )
    p_lint.add_argument("files", nargs="+", help="LOGRES source files")
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style (default: text)",
    )
    p_lint.add_argument(
        "--error-on-warning",
        action="store_true",
        help="exit non-zero on warnings, not only on errors",
    )
    p_lint.set_defaults(fn=cmd_lint)

    p_fmt = sub.add_parser("fmt", help="print the canonical source form")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(fn=cmd_fmt)

    p_explain = sub.add_parser(
        "explain", help="show the derivation tree of a fact"
    )
    common(p_explain)
    p_explain.add_argument(
        "fact", help='fact, e.g. \'anc(a="x", d="y")\' or'
                     " 'person(self=3, age=40)'"
    )
    p_explain.add_argument(
        "--why-not", action="store_true",
        help="explain why the fact is ABSENT: deletion provenance and"
             " the best near-miss valuation of every candidate rule",
    )
    p_explain.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style for --why-not (default: text)",
    )
    p_explain.set_defaults(fn=cmd_explain)

    p_diff = sub.add_parser(
        "diff", help="compare two run reports (regressions exit 1)"
    )
    p_diff.add_argument("baseline", help="baseline run report (JSON)")
    p_diff.add_argument("candidate", help="candidate run report (JSON)")
    p_diff.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative slowdown tolerated before a time delta is a"
             " regression (default: 0.25 = +25%%)",
    )
    p_diff.add_argument(
        "--min-time-ms", type=float, default=1.0,
        help="absolute jitter floor: time deltas below this never"
             " regress (default: 1.0)",
    )
    p_diff.add_argument(
        "--strict-counts", action="store_true",
        help="any count change (fires, facts, iterations) is a"
             " regression — for CI runs of an unchanged program",
    )
    p_diff.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style (default: text)",
    )
    p_diff.set_defaults(fn=cmd_diff)

    p_bench = sub.add_parser(
        "bench",
        help="run the workload x scale x kernel benchmark matrix and"
             " append BENCH_<family>.json rows (see 'bench report')",
    )
    p_bench.add_argument(
        "--matrix", action="store_true",
        help="sweep the full matrix: every kernel over three scale"
             " grades (default without it: the compiled kernel at one"
             " smoke scale)",
    )
    p_bench.add_argument(
        "--families", nargs="+", metavar="FAMILY",
        help="workload families to run (default: all registered)",
    )
    p_bench.add_argument(
        "--scales", nargs="+", metavar="SCALE",
        help="scale grades (1e3..1e6) or raw fact counts",
    )
    p_bench.add_argument(
        "--kernels", nargs="+", metavar="KERNEL",
        help="kernel configurations"
             " (reference/incremental/compiled)",
    )
    p_bench.add_argument(
        "--semantics", nargs="+", metavar="SEM",
        default=["inflationary"],
        choices=[s.value for s in Semantics],
        help="rule semantics to sweep (default: inflationary)",
    )
    p_bench.add_argument("--seed", type=int, default=0,
                         help="generator seed (default: 0)")
    p_bench.add_argument(
        "--reps", type=int, default=3,
        help="timed repetitions per cell; min is recorded (default: 3)",
    )
    p_bench.add_argument(
        "--root", default=".",
        help="directory holding the BENCH_*.json history (default: .)",
    )
    p_bench.add_argument(
        "--no-verify", action="store_true",
        help="skip the cross-kernel agreement check",
    )
    p_bench.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress on stderr")
    p_bench.set_defaults(fn=cmd_bench)

    bench_sub = p_bench.add_subparsers(dest="bench_command")
    p_brep = bench_sub.add_parser(
        "report",
        help="render perf trends over the BENCH_*.json history"
             " (trend regressions exit 1)",
    )
    p_brep.add_argument(
        "--root", default=".",
        help="directory holding the BENCH_*.json history (default: .)",
    )
    p_brep.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output style (default: text)",
    )
    p_brep.add_argument(
        "--prometheus", action="store_true",
        help="emit the Prometheus text exposition instead",
    )
    p_brep.add_argument(
        "--threshold", type=float, default=0.5,
        help="relative slowdown of the latest point vs the rolling"
             " median tolerated before a series regresses"
             " (default: 0.5 = +50%%)",
    )
    p_brep.add_argument(
        "--min-time-ms", type=float, default=5.0,
        help="absolute jitter floor: series whose latest point is"
             " within this of the median never regress (default: 5.0)",
    )
    p_brep.add_argument(
        "--window", type=int, default=5,
        help="prior points feeding the rolling median (default: 5)",
    )
    p_brep.add_argument(
        "--min-points", type=int, default=3,
        help="series shorter than this never flag (default: 3)",
    )
    p_brep.set_defaults(fn=cmd_bench_report)

    p_serve = sub.add_parser(
        "serve",
        help="serve named persistent databases over HTTP with admission"
             " control, request budgets and WAL crash recovery"
             " (docs/SERVE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="TCP port (0 picks a free one; default: 8765)")
    p_serve.add_argument("--data-dir", default=".",
                         help="directory of <name>.state.json databases"
                              " (default: .)")
    p_serve.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="default per-request wall-clock budget (default: 10)",
    )
    p_serve.add_argument(
        "--max-facts", type=int, default=500_000, metavar="N",
        help="default per-request derived-fact budget (default: 500000)",
    )
    p_serve.add_argument(
        "--max-oids", type=int, default=50_000, metavar="N",
        help="default per-request oid-invention budget (default: 50000)",
    )
    p_serve.add_argument(
        "--tenant-limit", action="append", metavar="NAME:T:F:O",
        help="per-tenant budget caps as NAME:timeout:max_facts:max_oids"
             " (empty field = server default; repeatable; matched"
             " against the X-Repro-Tenant header)",
    )
    p_serve.add_argument("--max-concurrent", type=int, default=8,
                         help="requests executing at once (default: 8)")
    p_serve.add_argument("--queue-depth", type=int, default=16,
                         help="admission queue bound; beyond it requests"
                              " are shed with 429 (default: 16)")
    p_serve.add_argument("--queue-timeout", type=float, default=2.0,
                         metavar="SECONDS",
                         help="max wait for an execution slot before"
                              " shedding (default: 2)")
    p_serve.add_argument("--retry-after", type=float, default=1.0,
                         metavar="SECONDS",
                         help="Retry-After hint on 429/503 (default: 1)")
    p_serve.add_argument("--max-body-bytes", type=int, default=1_000_000,
                         help="request body size limit (default: 1000000)")
    p_serve.add_argument(
        "--snapshot-interval", type=int, default=16, metavar="N",
        help="committed writes between snapshot rewrites; the WAL tail"
             " past the last snapshot replays on startup (default: 16)",
    )
    p_serve.add_argument(
        "--drain-deadline", type=float, default=10.0, metavar="SECONDS",
        help="how long SIGTERM waits for in-flight requests (default: 10)",
    )
    p_serve.add_argument("--ready-file", metavar="FILE",
                         help="write 'host port' here once listening")
    p_serve.add_argument("--quiet", action="store_true")
    p_serve.set_defaults(fn=cmd_serve)
    return parser


def _diagnostics_of(exc: LogresError) -> tuple[Diagnostic, ...]:
    """The diagnostics an exception carries, synthesizing one for a bare
    :class:`ParseError` (and for storage corruption) so every failure
    renders uniformly."""
    if exc.diagnostics:
        return tuple(exc.diagnostics)
    if isinstance(exc, ParseError):
        return (Diagnostic(
            "LG101", Severity.ERROR, exc.raw_message,
            Span(exc.line, exc.column) if exc.line else None,
        ),)
    if isinstance(exc, StorageError):
        return (Diagnostic("LG901", Severity.ERROR, str(exc)),)
    return ()


def _budget_diagnostic(exc: NonTerminationError) -> Diagnostic:
    """A structured diagnostic for an interrupted evaluation: the tripped
    budget's stable code plus how far the run got."""
    budget = ""
    if isinstance(exc, EvalBudgetExceeded):
        budget = exc.budget
    code = BUDGET_CODES.get(budget, BUDGET_CODES["max_iterations"])
    message = str(exc)
    stats = exc.stats
    if stats is not None:
        message += (
            f" [stopped after {stats.iterations} iteration(s),"
            f" {stats.facts_derived} fact(s) derived,"
            f" {stats.inventions} invented oid(s)]"
        )
    return Diagnostic(code, Severity.ERROR, message)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonTerminationError as exc:
        # guard breaches and iteration-budget exhaustion: exit 3, with
        # a structured diagnostic instead of a traceback
        diag = _budget_diagnostic(exc)
        file = getattr(args, "file", None)
        if file:
            diag = diag.with_file(file)
        print(diag.render(), file=sys.stderr)
        return 3
    except LogresError as exc:
        diagnostics = _diagnostics_of(exc)
        if diagnostics:
            file = getattr(args, "file", None)
            for diag in diagnostics:
                if file and diag.file is None:
                    diag = diag.with_file(file)
                print(diag.render(), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

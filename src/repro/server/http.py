"""The HTTP surface of ``repro serve`` (``docs/SERVE.md``).

Routes (JSON in, JSON out)::

    GET  /healthz                 liveness + drain state
    GET  /metrics                 Prometheus text exposition
    GET  /v1/db                   list databases
    GET  /v1/db/<name>            database info + fingerprints
    POST /v1/db/<name>            create from LOGRES source
    POST /v1/db/<name>/run        the instance (+ optional goal)
    POST /v1/db/<name>/check      consistency-check the instance
    POST /v1/db/<name>/explain    derivation tree of one instance fact
    POST /v1/db/<name>/apply      transactional, WAL-durable module apply
    POST /v1/db/<name>/plan       the planner's chosen literal orders

Status codes extend the CLI exit-code convention
(``docs/ROBUSTNESS.md``): 200 ↔ exit 0, 409 ↔ exit 1 (violations,
rejected application, absent fact), 422 ↔ exit 2 (parse / analysis /
storage, LG-coded diagnostics in the body), 503 + ``Retry-After`` ↔
exit 3 (budget breach, LG80x) — plus the server-only 429 (admission
shed, LG807), 503 LG808 (draining), 404, 413 and 400.

Every request runs under a :class:`~repro.engine.guards.ResourceGuard`
(clamped per tenant by :class:`~repro.server.config.ServerConfig`),
carries a fresh ``run_id`` echoed as ``X-Repro-Run-Id``, publishes one
:class:`~repro.observability.ServerRequest` event on the bus, and feeds
the ``server_request_seconds`` streaming histogram that ``/metrics``
exposes.  A client that disconnects mid-response is dropped and counted
(``server_client_disconnects``), never propagated.

Fault points: ``server.response`` fires before the response body is
written (``latency`` simulates a slow client, ``io-error`` a mid-request
disconnect); ``server.wal.append`` and ``server.snapshot`` live in the
durability layer.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.constraints.checker import ConsistencyChecker
from repro.engine import Engine, EvalConfig, Semantics
from repro.engine.goals import answer_goal
from repro.engine.guards import BUDGET_CODES
from repro.errors import (
    EvalBudgetExceeded,
    LogresError,
    ModuleApplicationError,
    NonTerminationError,
    ParseError,
    StorageError,
)
from repro.language.parser import parse_source
from repro.modules.module import Mode
from repro.modules.state import materialize
from repro.observability import (
    EventBus,
    MetricsRegistry,
    ServerRequest,
    new_run_id,
    payload_header,
    render_prometheus,
)
from repro.server.admission import AdmissionController, Overloaded
from repro.server.config import ServerConfig
from repro.server.registry import DatabaseRegistry
from repro.testing.faults import FAULTS
from repro.values.oids import OidGenerator

#: the per-database operations routed as ``POST /v1/db/<name>/<op>``;
#: while draining, requests already in flight finish and new work of
#: any kind gets 503 + LG808
_OPS = ("run", "check", "explain", "apply", "plan")


def _diag_dicts(exc: LogresError) -> list[dict]:
    """The structured diagnostics of a failure, synthesized when the
    exception carries none (mirrors the CLI's rendering)."""
    if exc.diagnostics:
        return [d.to_dict() for d in exc.diagnostics]
    if isinstance(exc, ParseError):
        return [Diagnostic("LG101", Severity.ERROR,
                           exc.raw_message).to_dict()]
    if isinstance(exc, StorageError):
        return [Diagnostic("LG901", Severity.ERROR, str(exc)).to_dict()]
    return []


def error_body(code: str, message: str, diagnostics=None) -> dict:
    return {
        **payload_header("server-error"),
        "error": {"code": code, "message": message},
        "diagnostics": diagnostics or [],
    }


class ReproServer:
    """The server object: registry + admission + telemetry + lifecycle."""

    def __init__(self, config: ServerConfig, bus: EventBus | None = None):
        self.config = config
        self.metrics = MetricsRegistry()
        self.registry = DatabaseRegistry(
            config.data_dir, snapshot_interval=config.snapshot_interval,
            metrics=self.metrics,
        )
        self.admission = AdmissionController(
            max_concurrent=config.max_concurrent,
            queue_depth=config.queue_depth,
            queue_timeout=config.queue_timeout,
            retry_after=config.retry_after,
        )
        self.bus = bus or EventBus()
        self.draining = threading.Event()
        self.client_disconnects = 0
        self._inflight = 0
        self._inflight_cond = threading.Condition(threading.Lock())
        self._httpd: ThreadingHTTPServer | None = None
        self._closed = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Recover every database, bind, and return ``(host, port)``
        (the real port, for ``port=0``)."""
        recovered = self.registry.open_all()
        for name in recovered:
            managed = self.registry.get(name)
            if managed.recovered_records:
                self.metrics.inc(
                    "server_wal_replayed_records", (("db", name),),
                    managed.recovered_records,
                )
        app = self

        class Handler(_Handler):
            server_app = app

        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler
        )
        self._httpd.daemon_threads = True
        return self._httpd.server_address[:2]

    def serve_forever(self) -> None:
        """Blocks until :meth:`drain` (or ``shutdown``) completes."""
        if self._httpd is None:
            self.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._finalize()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (must run on the main
        thread; the drain itself happens on a helper thread because
        ``shutdown()`` deadlocks if called from the serving thread)."""

        def _on_signal(signum, frame):
            threading.Thread(
                target=self.drain, name="repro-serve-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def drain(self, deadline: float | None = None) -> bool:
        """Stop accepting work, wait for in-flight requests under the
        deadline, then snapshot + fsync every database and flush
        telemetry.  Returns True when every request finished in time."""
        if self.draining.is_set():
            return True
        self.draining.set()
        limit = (self.config.drain_deadline
                 if deadline is None else deadline)
        finished = self._wait_idle(limit)
        if self._httpd is not None:
            self._httpd.shutdown()
        self._finalize()
        return finished

    def _wait_idle(self, limit: float) -> bool:
        expiry = time.monotonic() + limit
        with self._inflight_cond:
            while self._inflight:
                remaining = expiry - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(timeout=remaining)
        return True

    def _finalize(self) -> None:
        # the work happens *under* the lock: whoever loses the race
        # (the serving thread's finally vs. close()/drain()) blocks
        # until databases are snapshotted and the bus is flushed, so a
        # caller returning from close() can safely delete the data dir
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self.registry.close_all()
            self.bus.flush()
            self.bus.close()

    def close(self) -> None:
        """Test teardown: shutdown without the drain ceremony."""
        self.draining.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self._finalize()

    # ------------------------------------------------------------------
    def enter_request(self) -> None:
        with self._inflight_cond:
            self._inflight += 1

    def exit_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cond.notify_all()

    def note_disconnect(self) -> None:
        self.client_disconnects += 1

    def metrics_text(self) -> str:
        """The ``/metrics`` exposition: streaming request metrics plus
        bus, admission, registry and lifecycle gauges folded in."""
        self.bus.fold_metrics(self.metrics)
        for key, value in self.admission.stats().items():
            self.metrics.set_gauge(f"server_admission_{key}", (), value)
        self.metrics.set_gauge(
            "server_client_disconnects", (), self.client_disconnects
        )
        self.metrics.set_gauge(
            "server_draining", (), 1 if self.draining.is_set() else 0
        )
        for name in self.registry.names():
            try:
                managed = self.registry.get(name)
            except (KeyError, LogresError):
                continue
            labels = (("db", name),)
            self.metrics.set_gauge(
                "server_db_applied_seq", labels, managed.applied_seq
            )
            self.metrics.set_gauge(
                "server_db_snapshot_failures", labels,
                managed.snapshot_failures,
            )
        return render_prometheus(self.metrics)


class _Handler(BaseHTTPRequestHandler):
    """One request; ``server_app`` is bound by :meth:`ReproServer.start`."""

    server_app: ReproServer = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    #: a stalled client cannot hold a worker thread forever
    timeout = 30

    # silence the default stderr access log; telemetry rides the bus
    def log_message(self, format, *args):  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def do_GET(self):  # noqa: N802
        app = self.server_app
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if parts == ["healthz"]:
                self._reply(200, {
                    "status": ("draining" if app.draining.is_set()
                               else "ok"),
                    "databases": app.registry.names(),
                })
                return
            if parts == ["metrics"]:
                self._reply_text(200, app.metrics_text(),
                                 content_type="text/plain; version=0.0.4")
                return
            if parts == ["v1", "db"]:
                self._reply(200, {"databases": app.registry.names()})
                return
        except (BrokenPipeError, ConnectionResetError, OSError):
            app.note_disconnect()
            return
        if len(parts) == 3 and parts[:2] == ["v1", "db"]:
            self._instrumented("info", parts[2], None)
            return
        self._not_found()

    def do_POST(self):  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 3 and parts[:2] == ["v1", "db"]:
            self._instrumented("create", parts[2], self._read_body())
            return
        if (len(parts) == 4 and parts[:2] == ["v1", "db"]
                and parts[3] in _OPS):
            self._instrumented(parts[3], parts[2], self._read_body())
            return
        self._not_found()

    def _not_found(self) -> None:
        try:
            self._reply(404, error_body(
                "LG901", f"no route {self.command} {self.path!r}"
            ))
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.server_app.note_disconnect()

    # ------------------------------------------------------------------
    def _instrumented(self, op: str, db_name: str, body) -> None:
        """Admission, budgets, error mapping and telemetry around one
        operation."""
        app = self.server_app
        run_id = new_run_id()
        tenant = self.headers.get("X-Repro-Tenant")
        started = time.perf_counter()
        status = 500
        app.enter_request()
        try:
            if body is _BODY_TOO_LARGE:
                self.close_connection = True  # unread body poisons keep-alive
                status = self._reply(413, error_body(
                    "LG807",
                    f"request body exceeds"
                    f" {app.config.max_body_bytes} bytes",
                ), run_id=run_id)
                return
            if body is _BODY_BAD_JSON:
                status = self._reply(400, error_body(
                    "LG101", "request body is not valid JSON",
                ), run_id=run_id)
                return
            if app.draining.is_set():
                status = self._reply(503, error_body(
                    "LG808", "server is draining, retry elsewhere/later",
                ), retry_after=app.config.retry_after, run_id=run_id)
                return
            try:
                with app.admission.admit():
                    status, payload = self._dispatch(
                        op, db_name, body or {}, tenant
                    )
                # the slot bounds work, not socket writes: released
                # before the reply, so a client holding the response
                # never sees its own request still admitted
                retry = app.config.retry_after if status == 503 else None
                status = self._reply(status, payload,
                                     retry_after=retry, run_id=run_id)
            except Overloaded as exc:
                status = self._reply(429, error_body(
                    "LG807", str(exc),
                ), retry_after=exc.retry_after, run_id=run_id)
            except NonTerminationError as exc:
                code = BUDGET_CODES.get(
                    getattr(exc, "budget", ""), BUDGET_CODES["max_iterations"]
                ) if isinstance(exc, EvalBudgetExceeded) else (
                    BUDGET_CODES["max_iterations"])
                status = self._reply(503, error_body(code, str(exc)),
                                     retry_after=app.config.retry_after,
                                     run_id=run_id)
            except ModuleApplicationError as exc:
                status = self._reply(409, error_body(
                    (exc.diagnostic.code if exc.diagnostic else "LG703"),
                    str(exc), _diag_dicts(exc),
                ), run_id=run_id)
            except KeyError:
                status = self._reply(404, error_body(
                    "LG901", f"no database {db_name!r}",
                ), run_id=run_id)
            except ValueError as exc:
                status = self._reply(400, error_body(
                    "LG101", str(exc),
                ), run_id=run_id)
            except LogresError as exc:
                diags = _diag_dicts(exc)
                code = diags[0]["code"] if diags else "LG901"
                status = self._reply(422, error_body(code, str(exc), diags),
                                     run_id=run_id)
            except (BrokenPipeError, ConnectionResetError):
                raise
            except Exception as exc:  # noqa: BLE001 — the 500 boundary
                # anything unexpected (an injected WAL I/O fault, a bug)
                # becomes a diagnosable 500, never a hung connection;
                # the write it interrupted was not committed (the WAL
                # append is the commit point)
                status = self._reply(500, error_body(
                    "LG901", f"internal error: {exc}",
                ), run_id=run_id)
        except (BrokenPipeError, ConnectionResetError, OSError):
            # the client went away mid-response: drop it, count it,
            # never let it unwind into the server
            app.note_disconnect()
            status = 0
        finally:
            elapsed = time.perf_counter() - started
            labels = (("op", op),)
            app.metrics.observe("server_request_seconds", labels, elapsed)
            app.metrics.inc(
                "server_requests",  # renders as server_requests_total
                (("op", op), ("status", str(status))),
            )
            app.bus.publish(ServerRequest(
                run_id=run_id, method=self.command, path=self.path,
                op=op, db=db_name, tenant=tenant,
                status=status, elapsed=elapsed,
            ))
            # released last: the drain path may close the bus the
            # moment in-flight hits zero
            app.exit_request()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _dispatch(self, op: str, db_name: str, body: dict,
                  tenant: str | None) -> tuple[int, dict]:
        app = self.server_app
        if op == "create":
            source = (body or {}).get("source")
            if not isinstance(source, str):
                raise ValueError('create needs a "source" string')
            managed = app.registry.create(db_name, source)
            return 201, {"created": db_name, **managed.info()}
        managed = app.registry.get(db_name)
        if op == "info":
            return 200, managed.info()

        guard = app.config.guard_for(tenant, body.get("budgets"))
        guard.arm()
        config = EvalConfig(guard=guard)
        semantics = Semantics(body.get("semantics", "inflationary"))

        if op == "apply":
            module = body.get("module")
            if not isinstance(module, str):
                raise ValueError('apply needs a "module" string')
            mode = Mode(str(body.get("mode", "RIDV")).upper())
            applied, seq = managed.apply(
                module, mode, semantics=semantics, config=config,
                module_name=str(body.get("name", "")),
            )
            payload = {
                "applied_seq": seq,
                "mode": mode.value,
                "facts": applied.facts,
                "instance_facts": applied.instance_facts,
                "rules": applied.rules,
            }
            if applied.answers is not None:
                payload["answers"] = _render_answers(applied.answers)
            return 200, payload

        rules_text = body.get("rules") if op == "run" else None
        if op in ("run", "check") and not isinstance(rules_text, str):
            # the persistent instance: one evaluation per applied_seq,
            # read under the lock a write extends it under
            if op == "run":
                return 200, managed.read(
                    semantics, guard,
                    lambda held: _run_payload(held.instance, held.schema,
                                              body))
            violations = managed.read(
                semantics, guard,
                lambda held: ConsistencyChecker(
                    held.schema, held.denials).check(held.instance))
            if violations:
                return 409, {
                    "consistent": False,
                    "violations": [v.render() for v in violations],
                }
            return 200, {"consistent": True,
                         "violations_checked": True}

        # the rest of the read family evaluates an isolated snapshot
        # outside any lock
        state = managed.read_snapshot()
        if op == "run":
            extra = tuple(parse_source(rules_text).rules)
            instance = materialize(
                state, semantics, config, OidGenerator(), extra
            )
            return 200, _run_payload(instance, state.schema, body)
        if op == "explain":
            from repro.cli import _parse_fact
            from repro.engine.trace import Tracer

            fact_text = body.get("fact")
            if not isinstance(fact_text, str):
                raise ValueError('explain needs a "fact" string')
            fact = _parse_fact(fact_text)
            tracer = Tracer()
            engine = Engine(state.schema, state.evaluation_program(),
                            config=config, oidgen=OidGenerator())
            instance = engine.run(state.edb, semantics, tracer=tracer)
            if fact not in instance:
                return 409, {"holds": False, "fact": fact_text}
            tree = tracer.explain(fact, instance, engine.schema)
            return 200, {"holds": True, "fact": fact_text,
                         "explanation": tree.render()}
        if op == "plan":
            engine = Engine(state.schema, state.evaluation_program(),
                            config)
            plans = engine.explain_plan(state.edb, semantics)
            return 200, {"plans": [p.to_dict() for p in plans]}
        raise ValueError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------
    # body / reply plumbing
    # ------------------------------------------------------------------
    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.server_app.config.max_body_bytes:
            # drain what we can so the connection can still carry the 413
            self.rfile.read(
                min(length, self.server_app.config.max_body_bytes)
            )
            return _BODY_TOO_LARGE
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return _BODY_BAD_JSON
        return parsed if isinstance(parsed, dict) else _BODY_BAD_JSON

    def _reply(self, status: int, payload: dict,
               retry_after: float | None = None,
               run_id: str | None = None) -> int:
        text = json.dumps(payload, sort_keys=True)
        return self._reply_text(
            status, text, content_type="application/json",
            retry_after=retry_after, run_id=run_id,
        )

    def _reply_text(self, status: int, text: str,
                    content_type: str = "text/plain",
                    retry_after: float | None = None,
                    run_id: str | None = None) -> int:
        if FAULTS.enabled:
            FAULTS.fire("server.response")
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after))))
        if run_id is not None:
            self.send_header("X-Repro-Run-Id", run_id)
        if self.request_version == "HTTP/0.9":  # no headers at all
            self.wfile.write(data)
            return status
        # end_headers() would send the headers on their own: a second,
        # small send on a keep-alive connection then waits (Nagle) for
        # the client's delayed ACK, ~40 ms.  Blank line and body join
        # the header buffer so the response leaves in one send.
        self._headers_buffer.extend((b"\r\n", data))
        self.flush_headers()
        return status


#: sentinels `_read_body` returns instead of raising inside the
#: pre-admission phase
_BODY_TOO_LARGE = object()
_BODY_BAD_JSON = object()


def _run_payload(instance, schema, body: dict) -> dict:
    """The ``run`` response: instance counts, plus the answers to the
    body's ``goal`` when it has one."""
    payload = {
        "facts": instance.count(),
        "predicates": {
            pred: instance.count(pred)
            for pred in instance.predicates()
            if not pred.startswith("__")
        },
    }
    goal_text = body.get("goal")
    if isinstance(goal_text, str):
        payload["answers"] = _render_answers(
            _answer(goal_text, instance, schema)
        )
    return payload


def _answer(goal_text: str, instance, schema):
    text = goal_text.strip()
    if not text.startswith("goal"):
        text = "goal\n" + text
    goal = parse_source(text).goal
    if goal is None:
        raise ValueError(f"no goal found in {goal_text!r}")
    return answer_goal(goal, instance, schema)


def _render_answers(answers) -> list[dict]:
    return [{var: repr(value) for var, value in row.items()}
            for row in answers]

"""The ``repro serve`` HTTP surface: status mapping, tenancy, admission.

In-process servers on ephemeral ports; the load generator's
``post_json`` doubles as the test client (it returns error statuses as
data).  The mapping under test is the exit-code convention extended to
HTTP (``docs/ROBUSTNESS.md``): 200 ↔ 0, 409 ↔ 1, 422 ↔ 2,
503 + Retry-After ↔ 3, plus the server-only 429 (LG807), 503 LG808
(draining), 404, 413 and 400.
"""

import json
import socket
import struct
import threading
import time
import urllib.request

import pytest

from repro.observability import CollectorSink, EventBus
from repro.server import ReproServer, ServerConfig, TenantLimits
from repro.server.loadgen import post_json
from repro.testing import FAULTS

SOURCE = """
associations
  parent = (par: string, chil: string).
  anc = (a: string, d: string).
rules
  anc(a X, d Y) <- parent(par X, chil Y).
  anc(a X, d Z) <- parent(par X, chil Y), anc(a Y, d Z).
"""

#: 8 parent facts: the instance closes to 8 + 36 anc facts, far past
#: any single-digit max_facts cap
CHAIN = "rules\n" + "\n".join(
    f'  parent(par "p{i}", chil "p{i + 1}").' for i in range(8)
)


@pytest.fixture(autouse=True)
def clean_injector():
    FAULTS.clear()
    yield
    FAULTS.clear()


@pytest.fixture
def server(tmp_path):
    """A started server with one populated database, torn down hard."""
    app, base = _start(tmp_path)
    status, _, _ = post_json(base, "/v1/db/demo", {"source": SOURCE})
    assert status == 201
    status, _, _ = post_json(base, "/v1/db/demo/apply",
                             {"module": CHAIN, "mode": "RIDV"})
    assert status == 200
    yield app, base
    app.close()


def _start(tmp_path, bus=None, **overrides):
    config = ServerConfig(port=0, data_dir=str(tmp_path), **overrides)
    app = ReproServer(config, bus=bus)
    host, port = app.start()
    threading.Thread(target=app.serve_forever, daemon=True).start()
    return app, f"http://{host}:{port}"


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.status, json.loads(resp.read()), dict(resp.headers)


def _raw_post(base, path, data: bytes, headers=None):
    request = urllib.request.Request(
        base + path, data=data, method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class TestRoutesAndLifecycle:
    def test_healthz_lists_databases(self, server):
        _, base = server
        status, payload, _ = _get(base, "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "databases": ["demo"]}

    def test_info_carries_seq_and_fingerprints(self, server):
        _, base = server
        status, payload, _ = _get(base, "/v1/db/demo")
        assert status == 200
        assert payload["applied_seq"] == 1
        assert set(payload["fingerprints"]) == {"schema", "edb", "program"}

    def test_unknown_route_404(self, server):
        _, base = server
        status, payload = _raw_post(base, "/v2/nothing", b"{}")
        assert status == 404

    def test_unknown_database_404(self, server):
        _, base = server
        status, payload, _ = post_json(base, "/v1/db/ghost/run", {})
        assert status == 404
        assert payload["error"]["code"] == "LG901"

    def test_duplicate_create_rejected(self, server):
        _, base = server
        status, payload, _ = post_json(base, "/v1/db/demo",
                                       {"source": SOURCE})
        assert status == 422
        assert "already exists" in payload["error"]["message"]

    def test_invalid_name_rejected(self, server):
        _, base = server
        status, payload, _ = post_json(base, "/v1/db/Nope..Bad",
                                       {"source": SOURCE})
        assert status in (400, 404)  # name never reaches the registry


class TestOperations:
    def test_run_with_goal(self, server):
        _, base = server
        status, payload, _ = post_json(
            base, "/v1/db/demo/run", {"goal": '?- anc(a "p0", d D).'}
        )
        assert status == 200
        assert payload["facts"] == 8 + 36
        assert len(payload["answers"]) == 8  # p1..p8 reachable from p0

    def test_run_with_extra_rules_does_not_persist(self, server):
        _, base = server
        extra = "rules\n  anc(a \"x\", d \"y\")."
        status, payload, _ = post_json(base, "/v1/db/demo/run",
                                       {"rules": extra})
        assert status == 200
        assert payload["facts"] == 8 + 36 + 1
        status, payload, _ = post_json(base, "/v1/db/demo/run", {})
        assert payload["facts"] == 8 + 36  # the extra rule was per-request

    def test_apply_advances_seq(self, server):
        _, base = server
        status, payload, _ = post_json(
            base, "/v1/db/demo/apply",
            {"module": 'rules\n  parent(par "q1", chil "q2").',
             "mode": "RIDV"},
        )
        assert status == 200
        assert payload["applied_seq"] == 2

    def test_parse_error_is_422_with_diagnostics(self, server):
        _, base = server
        status, payload, _ = post_json(
            base, "/v1/db/demo/apply",
            {"module": "rules\n  this is ; not logres"},
        )
        assert status == 422
        codes = [d["code"] for d in payload["diagnostics"]]
        assert codes and all(c.startswith("LG") for c in codes)

    def test_check_consistent(self, server):
        _, base = server
        status, payload, _ = post_json(base, "/v1/db/demo/check", {})
        assert status == 200
        assert payload["consistent"] is True

    def test_explain_absent_fact_is_409(self, server):
        _, base = server
        status, payload, _ = post_json(
            base, "/v1/db/demo/explain",
            {"fact": 'anc(a="p8", d="p0")'},
        )
        assert status == 409
        assert payload["holds"] is False

    def test_explain_present_fact_renders_tree(self, server):
        _, base = server
        status, payload, _ = post_json(
            base, "/v1/db/demo/explain",
            {"fact": 'anc(a="p0", d="p2")'},
        )
        assert status == 200
        assert "anc" in payload["explanation"]

    def test_plan(self, server):
        _, base = server
        status, payload, _ = post_json(base, "/v1/db/demo/plan", {})
        assert status == 200
        assert payload["plans"]


class TestBudgetsAndTenancy:
    def test_timeout_breach_is_503_with_retry_after(self, server):
        _, base = server
        status, payload, headers = post_json(
            base, "/v1/db/demo/run",
            {"budgets": {"timeout": 0.000001}},
        )
        assert status == 503
        assert payload["error"]["code"] == "LG801"
        assert headers.get("Retry-After")

    def test_max_facts_breach_is_503(self, server):
        _, base = server
        status, payload, _ = post_json(
            base, "/v1/db/demo/run", {"budgets": {"max_facts": 5}}
        )
        assert status == 503
        assert payload["error"]["code"] == "LG802"

    def test_tenant_cap_clamps_requests(self, tmp_path):
        app, base = _start(
            tmp_path,
            tenant_limits={"small": TenantLimits(max_facts=5)},
        )
        try:
            post_json(base, "/v1/db/demo", {"source": SOURCE})
            post_json(base, "/v1/db/demo/apply",
                      {"module": CHAIN, "mode": "RIDV"})
            # an untenanted request runs under the server defaults
            status, _, _ = post_json(base, "/v1/db/demo/run", {})
            assert status == 200
            # the capped tenant breaches — even asking for more budget
            status, payload, _ = post_json(
                base, "/v1/db/demo/run",
                {"budgets": {"max_facts": 10**9}}, tenant="small",
            )
            assert status == 503
            assert payload["error"]["code"] == "LG802"
        finally:
            app.close()


class TestAdmissionAndBodies:
    def test_queue_timeout_sheds_with_429(self, tmp_path):
        app, base = _start(
            tmp_path, max_concurrent=1, queue_depth=4, queue_timeout=0.05,
            retry_after=3.0,
        )
        try:
            post_json(base, "/v1/db/demo", {"source": SOURCE})
            with app.admission.admit():  # the only slot, held by the test
                status, payload, headers = post_json(
                    base, "/v1/db/demo/run", {}
                )
            assert status == 429
            assert payload["error"]["code"] == "LG807"
            assert headers.get("Retry-After") == "3"
            assert app.admission.stats()["shed_timeout"] == 1
        finally:
            app.close()

    def test_oversized_body_is_413(self, tmp_path):
        app, base = _start(tmp_path, max_body_bytes=256)
        try:
            status, payload = _raw_post(
                base, "/v1/db/x", b'{"source": "' + b"a" * 500 + b'"}'
            )
            assert status == 413
        finally:
            app.close()

    def test_malformed_json_is_400(self, server):
        _, base = server
        status, payload = _raw_post(base, "/v1/db/demo/run",
                                    b"{not json at all")
        assert status == 400
        assert payload["error"]["code"] == "LG101"

    def test_draining_rejects_new_work_with_lg808(self, server):
        app, base = server
        app.draining.set()
        try:
            status, payload, headers = post_json(base, "/v1/db/demo/run", {})
            assert status == 503
            assert payload["error"]["code"] == "LG808"
            assert headers.get("Retry-After")
            status, payload, _ = _get(base, "/healthz")
            assert payload["status"] == "draining"
        finally:
            app.draining.clear()


class TestTelemetry:
    def test_every_response_carries_a_run_id(self, server):
        _, base = server
        status, _, headers = post_json(base, "/v1/db/demo/run", {})
        assert headers.get("X-Repro-Run-Id")

    def test_metrics_exposition(self, server):
        app, base = server
        post_json(base, "/v1/db/demo/run", {})
        # request metrics are recorded after the response bytes go out;
        # poll briefly so the scrape cannot race the bookkeeping
        deadline = time.monotonic() + 5
        while True:
            with urllib.request.urlopen(
                base + "/metrics", timeout=10
            ) as resp:
                assert "version=0.0.4" in resp.headers["Content-Type"]
                text = resp.read().decode()
            wanted = 'repro_server_requests_total{op="run",status="200"}'
            if wanted in text or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert wanted in text
        assert 'repro_server_db_applied_seq{db="demo"} 1' in text
        assert "repro_server_request_seconds_count" in text
        assert "repro_server_admission_active 0" in text
        # the fixture's committed write left its instance as the entry
        # of the new seq, so the first read already hits
        assert 'repro_server_read_cache_hits_total{db="demo"} 1' in text
        assert 'repro_server_read_cache_misses_total{db="demo"}' \
            not in text
        # a second read at the same applied_seq answers from the held
        # instance: the hit counter moves, the miss counter does not
        post_json(base, "/v1/db/demo/run", {})
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
        assert 'repro_server_read_cache_hits_total{db="demo"} 2' in text
        assert 'repro_server_read_cache_misses_total{db="demo"}' \
            not in text
        # the fixture's write had no held instance to extend; an insert
        # into the same invention-free program extends the held one
        assert ('repro_server_writes_total{db="demo",path="full"} 1'
                in text)
        assert 'path="extend"' not in text
        status, _, _ = post_json(base, "/v1/db/demo/apply", {
            "module": 'rules\n  parent(par "p8", chil "p9").',
            "mode": "RIDV"})
        assert status == 200
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
        assert ('repro_server_writes_total{db="demo",path="extend"} 1'
                in text)
        assert ('repro_server_writes_total{db="demo",path="full"} 1'
                in text)

    def test_requests_publish_bus_events(self, tmp_path):
        bus = EventBus()
        collector = CollectorSink()
        bus.attach_sink(collector)
        app, base = _start(tmp_path, bus=bus)
        try:
            post_json(base, "/v1/db/demo", {"source": SOURCE})
            post_json(base, "/v1/db/demo/run", {})
            # events publish after the response bytes go out: poll
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and len(
                [e for e in collector.events
                 if e.kind == "server-request"]
            ) < 2:
                time.sleep(0.02)
        finally:
            app.close()
        reqs = [e for e in collector.events if e.kind == "server-request"]
        assert [r.op for r in reqs] == ["create", "run"]
        assert all(r.run_id for r in reqs)
        assert reqs[0].status == 201 and reqs[1].status == 200

    def test_injected_write_fault_becomes_a_500(self, server):
        """A non-disconnect OSError mid-reply (disk gone, injected
        fault) hits the 500 boundary — diagnosable, never a hang."""
        _, base = server
        with FAULTS.inject("server.response", action="io-error"):
            status, payload, _ = post_json(base, "/v1/db/demo/run", {})
        assert status == 500
        assert payload["error"]["code"] == "LG901"

    def test_mid_response_disconnect_is_counted_not_fatal(self, server):
        app, base = server
        host, _, port = base.rpartition("//")[2].partition(":")
        with FAULTS.inject("server.response", action="latency",
                           delay=0.5):
            sock = socket.create_connection((host, int(port)), timeout=10)
            sock.sendall(
                b"POST /v1/db/demo/run HTTP/1.1\r\n"
                b"Host: t\r\nContent-Type: application/json\r\n"
                b"Content-Length: 2\r\n\r\n{}"
            )
            time.sleep(0.15)  # the handler is now in the latency window
            # RST on close so the server's write fails immediately
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
            deadline = time.monotonic() + 5
            while (app.client_disconnects == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        assert app.client_disconnects == 1
        # the server still serves
        status, _, _ = post_json(base, "/v1/db/demo/run", {})
        assert status == 200

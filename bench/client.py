"""Closed-loop load against a running ``repro serve``.

Each client thread holds one persistent HTTP/1.1 connection and sends
its next request as soon as the previous reply has arrived, the way a
caller that waits for each answer behaves.  One client measures latency;
two (one per vCPU of the reference box) measure capacity.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Request:
    """One operation: ``kind`` is ``read`` or ``write``."""

    kind: str
    path: str
    body: dict
    #: what the response is checked against: the user a read asks
    #: about, the fact a write adds
    key: str = ""
    #: filled in when the request is sent
    status: int = 0
    payload: dict = field(default_factory=dict)
    latency_ms: float = 0.0
    error: str = ""


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def send(self, request: Request) -> None:
        began = time.perf_counter()
        try:
            self.conn.request("POST", request.path, json.dumps(request.body),
                              {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
            request.status = response.status
            request.payload = json.loads(raw) if raw else {}
        except (OSError, http.client.HTTPException, ValueError) as exc:
            request.error = f"{type(exc).__name__}: {exc}"
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=60)
        request.latency_ms = (time.perf_counter() - began) * 1000.0


def closed_loop(host: str, port: int, make_request, seconds: float,
                clients: int) -> tuple[list[Request], float]:
    """``clients`` connections back to back until ``seconds`` have
    passed; ``make_request(n)`` builds the n-th request.  Returns the
    requests in the order they were made and the seconds until the last
    one finished."""
    lock = threading.Lock()
    made: list[Request] = []
    errors: list[BaseException] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        conn = _Connection(host, port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    request = make_request(len(made))
                    made.append(request)
                conn.send(request)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
        finally:
            conn.conn.close()

    began = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return made, time.perf_counter() - began

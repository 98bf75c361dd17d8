"""Fork server for the ``run-*`` workloads.

Imports ``repro.cli`` once, then forks one child per request line read
from stdin.  Each child is a fresh ``repro run`` minus interpreter start:
it calls ``repro.cli.main(argv)`` with its stdout sent to a file and
exits; no state leaks from one run into the next.  The parent times the
child from ``fork()`` to ``wait4()`` and answers with one JSON line::

    -> {"argv": [...], "stdout": PATH, "stderr": PATH, "op": "r3-"}
    <- {"ms": 512.3, "rss_kb": 181236, "code": 0}

With ``--spans PATH`` the worker installs the span wrappers before it
forks, and every child appends its spans to ``PATH`` before exiting.
The first line the worker writes reports how many ``repro`` bindings
are wrapped, so the caller can check the untraced worker has none.

Usage: ``python bench/forkworker.py [--spans PATH]`` with ``src`` on
``PYTHONPATH``.
"""

import json
import os
import sys
import time
import traceback

import repro.cli
import tracing


def _child(request: dict, tracer) -> None:
    code = 70
    try:
        for fd, path in ((1, request["stdout"]), (2, request["stderr"])):
            target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(target, fd)
            os.close(target)
        if tracer is not None:
            tracer.reset(request["op"])
        code = repro.cli.main(request["argv"])
    except BaseException:  # noqa: BLE001 — report and exit, never return
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        if tracer is not None:
            tracer.dump(request["spans"])
        os._exit(code or 0)


def main() -> int:
    tracer = tracing.install() if sys.argv[1:2] == ["--spans"] else None
    out = sys.stdout
    out.write(json.dumps({"wrapped": len(tracing.wrapped_bindings())})
              + "\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            request["spans"] = sys.argv[2]
        started = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            _child(request, tracer)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - started
        out.write(json.dumps({
            "ms": elapsed * 1000.0,
            "rss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status),
        }) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer spans timed from outside the program.

:func:`install` wraps public entry points of each ``repro`` layer in a
timing wrapper.  A wrapper replaces every module binding of the original
function object (and the class attribute, for methods), so call sites
that did ``from x import f`` and lazy imports inside functions both see
it.  :meth:`Tracer.uninstall` puts every original back.

A span records its name, start and end (``perf_counter_ns``), its parent
span, the operation it belongs to and the thread.  The root span of a
thread's call stack opens a new operation: ``repro.cli.main`` for a
``repro run``, and the ``ReproServer.enter_request`` →
``exit_request`` interval for one HTTP request.  Spans stay in memory
until :meth:`Tracer.dump` appends them to a JSON-lines file.

:func:`summarize` turns spans into the benchmark's per-layer metrics:
a span's self time is its duration minus its children's, and every
metric is a mean per operation.
"""

from __future__ import annotations

import functools
import importlib.abc
import itertools
import json
import sys
import threading
import time

#: marker attribute every wrapper carries (see :func:`wrapped_bindings`)
MARKER = "__bench_span__"

#: (module, attribute path, span name) of every wrapped entry point
TARGETS = (
    ("repro.cli", "main", "cli.main"),
    ("repro.language.parser", "parse_source", "language.parse"),
    ("repro.analysis.driver", "analyze_or_raise", "analysis.analyze"),
    ("repro.storage.factset", "FactSet.copy", "storage.copy"),
    ("repro.storage.persist", "loads_state", "storage.load"),
    ("repro.storage.persist", "atomic_write_text", "storage.snapshot_write"),
    ("repro.engine.planner", "build_plan", "planner.plan"),
    ("repro.engine.compile", "compile_rule", "compile.compile"),
    ("repro.engine.fixpoint", "Engine.run", "fixpoint.run"),
    ("repro.engine.fixpoint", "stratify_runtimes", "fixpoint.stratify"),
    ("repro.engine.goals", "answer_goal", "goals.answer"),
    ("repro.constraints.checker", "ConsistencyChecker.check",
     "constraints.check"),
    ("repro.modules.apply", "apply_module", "modules.apply"),
    ("repro.modules.txn", "state_fingerprints", "modules.fingerprint"),
    ("repro.server.registry", "RWLock.acquire_read", "registry.lock_wait"),
    ("repro.server.registry", "RWLock.acquire_write", "registry.lock_wait"),
    ("repro.server.wal", "WriteAheadLog.append", "wal.append"),
    ("repro.server.http", "ReproServer.enter_request", "http.request"),
    ("repro.server.http", "ReproServer.exit_request", "http.request"),
)

#: span names whose self time is one per-layer ``*_ms`` metric
SELF_METRICS = {
    "cli.main": "cli.self_ms",
    "language.parse": "language.parse_ms",
    "analysis.analyze": "analysis.analyze_ms",
    "storage.copy": "storage.copy_ms",
    "storage.load": "storage.load_ms",
    "storage.snapshot_write": "storage.snapshot_write_ms",
    "planner.plan": "planner.plan_ms",
    "compile.compile": "compile.compile_ms",
    "fixpoint.run": "fixpoint.eval_ms",
    "fixpoint.stratify": "fixpoint.stratify_ms",
    "goals.answer": "goals.answer_ms",
    "constraints.check": "constraints.check_ms",
    "modules.apply": "modules.apply_ms",
    "modules.fingerprint": "modules.fingerprint_ms",
    "registry.lock_wait": "registry.lock_wait_ms",
    "wal.append": "wal.append_ms",
    "http.request": "http.self_ms",
}

#: span names whose call count per operation is a metric
CALL_METRICS = {
    "language.parse": "language.parse_calls",
    "analysis.analyze": "analysis.analyze_calls",
    "storage.copy": "storage.copy_calls",
    "planner.plan": "planner.plan_calls",
    "fixpoint.run": "fixpoint.runs",
    "wal.append": "wal.appends",
}

#: every per-layer metric, in report order, with its unit
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "language.parse_ms": "ms",
    "language.parse_calls": "count",
    "analysis.analyze_ms": "ms",
    "analysis.analyze_calls": "count",
    "storage.copy_ms": "ms",
    "storage.copy_calls": "count",
    "storage.load_ms": "ms",
    "storage.snapshot_write_ms": "ms",
    "planner.plan_ms": "ms",
    "planner.plan_calls": "count",
    "compile.compile_ms": "ms",
    "compile.compiled_frac": "fraction",
    "fixpoint.eval_ms": "ms",
    "fixpoint.stratify_ms": "ms",
    "fixpoint.runs": "count",
    "fixpoint.iterations": "count",
    "fixpoint.facts_out": "count",
    "fixpoint.seminaive_frac": "fraction",
    "goals.answer_ms": "ms",
    "constraints.check_ms": "ms",
    "modules.apply_ms": "ms",
    "modules.fingerprint_ms": "ms",
    "registry.lock_wait_ms": "ms",
    "wal.append_ms": "ms",
    "wal.appends": "count",
    "http.request_ms": "ms",
    "http.self_ms": "ms",
    "http.transport_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _engine_stats(args, result):
    stats = args[0].stats
    return {"iterations": stats.iterations, "facts": result.count(),
            "seminaive": bool(stats.used_seminaive)}


def _compiled(args, result):
    return {"compiled": result is not None}


#: span attributes read from an entry point's arguments and result
ATTRIBUTES = {"fixpoint.run": _engine_stats, "compile.compile": _compiled}


class Tracer:
    """In-memory span recorder plus the wrappers it installed."""

    def __init__(self, op_prefix: str = ""):
        self.op_prefix = op_prefix
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute name, original) of every replaced binding
        self._restore: list[tuple[object, str, object]] = []
        #: module -> (attribute path, span name) not yet wrapped
        self._pending: dict[str, list[tuple[str, str]]] = {}
        self._finder = None

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        span = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else f"{self.op_prefix}{span_id}",
            "thread": threading.get_ident(),
            "start": time.perf_counter_ns(),
        }
        stack.append(span)
        return span

    def end(self, span: dict, attrs: dict | None = None) -> None:
        span["end"] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)

    def reset(self, op_prefix: str) -> None:
        """Forget recorded spans (a forked child starts clean)."""
        self.op_prefix = op_prefix
        self.spans = []
        self._local = threading.local()

    def dump(self, path: str) -> None:
        """Append every recorded span to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as f:
            f.write("".join(json.dumps(s, separators=(",", ":")) + "\n"
                            for s in self.spans))

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name: str, fn):
        attrs_of = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, result)
                return result
            finally:
                self.end(span, attrs)

        setattr(wrapper, MARKER, name)
        return wrapper

    def _wrap_request_begin(self, fn):
        # enter_request/exit_request bracket one request: the span opens
        # after the first returns and closes before the second runs
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.begin("http.request")
            return result

        setattr(wrapper, MARKER, "http.request")
        return wrapper

    def _wrap_request_end(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] == "http.request":
                self.end(stack[-1])
            return fn(*args, **kwargs)

        setattr(wrapper, MARKER, "http.request")
        return wrapper

    def _replace(self, original, wrapper, owner=None, attr=None) -> None:
        if owner is not None:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _wrap_module(self, module_name: str) -> None:
        module = sys.modules[module_name]
        for path, name in self._pending.pop(module_name):
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                if attr == "enter_request":
                    wrapper = self._wrap_request_begin(original)
                elif attr == "exit_request":
                    wrapper = self._wrap_request_end(original)
                else:
                    wrapper = self._wrap(name, original)
                self._replace(original, wrapper, owner, attr)
            else:
                original = getattr(module, path)
                self._replace(original, self._wrap(name, original))

    def install(self) -> "Tracer":
        """Wrap the targets of every loaded module now, and those of the
        others as they are imported.  Importing nothing here keeps a
        traced process paying for the same lazy imports as an untraced
        one (``repro run`` imports the planner on first use)."""
        self._pending = {}
        for module_name, path, name in TARGETS:
            self._pending.setdefault(module_name, []).append((path, name))
        for module_name in list(self._pending):
            if module_name in sys.modules:
                self._wrap_module(module_name)
        self._finder = _WrapOnImport(self)
        sys.meta_path.insert(0, self._finder)
        return self

    def uninstall(self) -> None:
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps a target module's entry points as soon as it is imported."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.tracer._pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            if fullname in self.tracer._pending:
                self.tracer._wrap_module(fullname)

        # the loader instance belongs to this one spec
        spec.loader.exec_module = exec_and_wrap
        return spec


def install(op_prefix: str = "") -> Tracer:
    """Wrap every entry point in :data:`TARGETS`; returns the tracer."""
    return Tracer(op_prefix).install()


def wrapped_bindings() -> list[str]:
    """``module.name`` of every loaded ``repro`` binding that is a span
    wrapper (empty when nothing is installed)."""
    found = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            candidates = [value]
            if isinstance(value, type):
                candidates = list(vars(value).values())
            if any(hasattr(c, MARKER) for c in candidates
                   if callable(c)):
                found.append(f"{module_name}.{key}")
    return found


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------
def load_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def operations(spans: list[dict]) -> dict[str, list[dict]]:
    """Spans grouped by operation id, each group root first."""
    ops: dict[str, list[dict]] = {}
    for span in sorted(spans, key=lambda s: s["start"]):
        ops.setdefault(span["op"], []).append(span)
    return ops


def self_times(op_spans: list[dict]) -> dict[int, int]:
    """Self time (ns) of every span of one operation: its duration minus
    the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in op_spans}
    for span in op_spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def op_kind(op_spans: list[dict]) -> str:
    """``run`` (a CLI run), ``write`` / ``read`` (a request that applied
    a module / answered a goal), or ``other``."""
    root = op_spans[0]["name"]
    names = {s["name"] for s in op_spans}
    if root == "cli.main":
        return "run"
    if root != "http.request":
        return "other"
    if "modules.apply" in names:
        return "write"
    if "goals.answer" in names:
        return "read"
    return "other"


def summarize(spans: list[dict], kinds: tuple[str, ...],
              client_ms: list[float]) -> dict:
    """Per-layer metrics averaged over the operations of ``kinds``.

    ``client_ms`` are the latencies the client saw for the same
    operations; ``http.transport_ms`` is their mean minus the mean root
    span, so the self times plus transport add up to the client
    latency.  Returns the metrics plus ``ops`` (how many operations) and
    ``identity_error`` (how far that sum is from the mean client
    latency, as a share of it).
    """
    selected = [s for s in operations(spans).values()
                if op_kind(s) in kinds]
    n = len(selected)
    sums = {name: 0.0 for name in LAYER_METRICS}
    compiled = compile_calls = seminaive = fix_runs = 0
    root_ms = 0.0
    for op_spans in selected:
        own = self_times(op_spans)
        root = op_spans[0]
        root_ms += (root["end"] - root["start"]) / 1e6
        if root["name"] == "http.request":
            sums["http.request_ms"] += (root["end"] - root["start"]) / 1e6
        for span in op_spans:
            name = span["name"]
            sums[SELF_METRICS[name]] += own[span["id"]] / 1e6
            if name in CALL_METRICS:
                sums[CALL_METRICS[name]] += 1
            attrs = span.get("attrs") or {}
            if name == "compile.compile":
                compile_calls += 1
                compiled += attrs.get("compiled", False)
            elif name == "fixpoint.run":
                fix_runs += 1
                seminaive += attrs.get("seminaive", False)
                sums["fixpoint.iterations"] += attrs.get("iterations", 0)
                sums["fixpoint.facts_out"] += attrs.get("facts", 0)
    metrics = {name: (value / n if n else 0.0)
               for name, value in sums.items()}
    metrics["compile.compiled_frac"] = (
        compiled / compile_calls if compile_calls else 0.0)
    metrics["fixpoint.seminaive_frac"] = (
        seminaive / fix_runs if fix_runs else 0.0)
    client_mean = sum(client_ms) / len(client_ms) if client_ms else 0.0
    metrics["http.transport_ms"] = (
        client_mean - root_ms / n if n else 0.0)
    accounted = sum(metrics[m] for m in SELF_METRICS.values()) \
        + metrics["http.transport_ms"]
    identity_error = (abs(accounted - client_mean) / client_mean
                      if client_mean else 0.0)
    return {"metrics": metrics, "ops": n, "client_ops": len(client_ms),
            "identity_error": identity_error}

"""E11 — Live telemetry: bus fan-out cost and raw throughput.

Not a paper experiment: this series guards the observability promise
that carried over from the zero-overhead instrumentation work — wiring
the event stream through the :class:`~repro.observability.bus.EventBus`
(attached sink plus one live subscriber, the shape a ``repro tail``
attachment produces) must stay a small constant over emitting the same
events into a bare sink, and the uninstrumented fast path must not pay
at all.

Series (group ``e11-telemetry`` → ``BENCH_e11.json`` rows):

  * ``test_bus_publish_throughput`` — events/sec through a bus with one
    attached sink and one subscriber (``extra_info["events_per_sec"]``);
  * ``test_e01_instrumented_sink`` / ``test_e01_instrumented_bus`` —
    the instrumented E01 1k-edge run with a bare counting sink vs the
    same run published through the bus; their ratio is what a paired
    ratio predicate of ``check_regression.py`` bounds at 5%;
  * ``test_e01_disabled`` — the NULL-instrumentation run, the
    disabled-path ≈0 reference.
"""

import pytest

from benchmarks.conftest import eval_config_info, run_logres
from benchmarks.telemetry import (
    PLAN_GATE_EDGES,
    _CountingSink,
    _instrumented_run,
    _plan_gate_workload,
    bus_throughput,
)
from repro.observability.bus import EventBus

#: synthetic events pushed per throughput round
THROUGHPUT_EVENTS = 20_000


@pytest.mark.benchmark(group="e11-telemetry")
def test_bus_publish_throughput(benchmark):
    rate = benchmark(bus_throughput, THROUGHPUT_EVENTS)
    benchmark.extra_info["events_per_sec"] = round(rate)
    assert rate > 10_000  # anything slower would dominate small runs


@pytest.mark.benchmark(group="e11-telemetry")
def test_e01_disabled(benchmark):
    schema, program, edb = _plan_gate_workload()
    benchmark.extra_info["config"] = eval_config_info(plan=True)
    out = benchmark(run_logres, schema, program, edb, plan=True)
    assert out.count("anc") >= out.count("parent")


@pytest.mark.benchmark(group="e11-telemetry")
def test_e01_instrumented_sink(benchmark):
    schema, program, edb = _plan_gate_workload()

    def run():
        return _instrumented_run(schema, program, edb, _CountingSink())

    out = benchmark(run)
    assert out.count("anc") >= out.count("parent")


@pytest.mark.benchmark(group="e11-telemetry")
def test_e01_instrumented_bus(benchmark):
    schema, program, edb = _plan_gate_workload()

    def run():
        bus = EventBus()
        bus.attach_sink(_CountingSink())
        sub = bus.subscribe(name="bench-tail")
        try:
            return _instrumented_run(schema, program, edb, bus)
        finally:
            sub.close()

    out = benchmark(run)
    assert out.count("anc") >= out.count("parent")

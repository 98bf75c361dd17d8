"""The ``repro bench`` matrix driver: workload × scale × kernel cells.

One **cell** is a single benchmark measurement: a workload family
(:mod:`repro.workloads.families`) built at one scale grade, evaluated
under one named kernel configuration and one semantics.  Each cell

* times ``reps`` **uninstrumented** engine runs — the production fast
  path, where the semi-naive and compiled machinery actually engage
  (instrumentation forces the general path, so timing an instrumented
  run would erase the very kernel differences the matrix exists to
  measure);
* additionally executes once through
  :func:`~repro.observability.report.report_program`, so every cell
  yields a versioned :class:`RunReport` (phase tree, per-rule metrics,
  plans, trace context) and its row carries the report's ``run_id``;
* emits one schema-versioned row (``payload_header("bench-row")``) in
  the exact shape ``benchmarks/conftest`` appends for the pytest
  experiments, so :class:`repro.observability.trend.TrendStore` ingests
  both histories uniformly.

:func:`run_matrix` sweeps the full cross product, cross-checks that all
kernels in the sweep computed isomorphic instances per (family, scale,
semantics) — invented oid *numbers* legitimately differ between
kernels, so agreement is modulo oid renaming — and appends each
family's rows to ``BENCH_<family>.json`` through the deduplicating
append of :mod:`repro.observability.trend`.
"""

from __future__ import annotations

import pathlib
import statistics
import time

from repro.workloads.families import (
    FAMILIES,
    WorkloadFamily,
    resolve_scale,
)

#: the three kernel configurations of the matrix, in maturity order:
#: the copy-per-iteration executable specification, the in-place O(|Δ|)
#: kernel with the dynamic scheduler, and the default — the cost-based
#: planner with compiled rule bodies
KERNELS: dict[str, dict] = {
    "reference": {"incremental": False, "plan": False},
    "incremental": {"plan": False},
    "compiled": {"plan": True},
}

DEFAULT_REPS = 3


def kernel_config(kernel: str):
    """The :class:`~repro.engine.fixpoint.EvalConfig` for a named
    kernel column."""
    from repro.engine.fixpoint import EvalConfig

    try:
        switches = KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}: expected one of "
            + ", ".join(KERNELS)
        ) from None
    return EvalConfig(**switches)


def resolve_semantics(token):
    from repro.engine.fixpoint import Semantics

    if isinstance(token, Semantics):
        return token
    try:
        return Semantics(token)
    except ValueError:
        raise ValueError(
            f"unknown semantics {token!r}: expected one of "
            + ", ".join(s.value for s in Semantics)
        ) from None


def cell_config(kernel: str, semantics, seed: int) -> dict:
    """The row's ``config`` object — the series key of the trend store,
    so it must be byte-stable across sessions."""
    cfg = kernel_config(kernel)
    return {
        "kernel": kernel,
        "semantics": resolve_semantics(semantics).value,
        "seed": seed,
        "incremental": cfg.incremental,
        "plan": cfg.plan,
        "seminaive": cfg.seminaive,
        "use_indexes": cfg.use_indexes,
    }


def run_cell(
    family: WorkloadFamily,
    scale: int,
    kernel: str,
    semantics="inflationary",
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    session: str | None = None,
):
    """``(row, instance)`` for one matrix cell.

    ``row`` is the appendable bench row; ``instance`` is the computed
    :class:`~repro.storage.factset.FactSet` (the matrix uses it for the
    cross-kernel agreement check).
    """
    from repro.engine import Engine
    from repro.observability.events import payload_header
    from repro.observability.report import report_program

    sem = resolve_semantics(semantics)
    config = kernel_config(kernel)
    schema, program, edb = family.build(scale, seed=seed)
    times: list[float] = []
    instance = None
    for _ in range(max(1, reps)):
        engine = Engine(schema, program, config)
        t0 = time.perf_counter()
        instance = engine.run(edb, sem)
        times.append(time.perf_counter() - t0)
    source = f"workloads/bench:{family.name}[{scale}]"
    report = report_program(schema, program, edb, semantics=sem,
                            config=config, source_file=source,
                            kernel=kernel)
    row = payload_header("bench-row")
    row.update({
        "ts": time.time(),
        "session": session or time.strftime("%Y-%m-%dT%H:%M:%S"),
        "exp": family.name,
        "group": f"bench-{family.name}",
        "name": f"{family.name}[{scale}]",
        "min_ms": min(times) * 1000,
        "mean_ms": statistics.mean(times) * 1000,
        "stddev_ms": (statistics.stdev(times) * 1000
                      if len(times) > 1 else 0.0),
        "rounds": len(times),
        "config": cell_config(kernel, sem, seed),
        "run_id": report.run_id,
        "facts_in": edb.count(),
        "facts_out": instance.count(),
        "derived": {
            pred: instance.count(pred) for pred in family.derived_preds
        },
    })
    return row, instance


def _outcomes_agree(a, b) -> bool:
    """Equal, or equal modulo a renaming of invented oids."""
    if a == b:
        return True
    return a.to_instance().isomorphic_to(b.to_instance())


def run_matrix(
    families=None,
    scales=(100,),
    kernels=None,
    semantics=("inflationary",),
    seed: int = 0,
    reps: int = DEFAULT_REPS,
    root=None,
    verify: bool = True,
    progress=None,
) -> tuple[list[dict], list[pathlib.Path]]:
    """Sweep the full cell cross product and append the rows.

    Returns ``(rows, touched_paths)``.  ``families`` and ``kernels``
    accept names (defaulting to every registered one); ``scales``
    accepts grade names or raw fact counts.  With ``verify`` (default)
    every (family, scale, semantics) group's kernels must compute
    isomorphic instances — the matrix doubles as a cross-kernel
    correctness sweep.  ``progress`` is an optional callable receiving
    one line per finished cell.
    """
    from repro.observability.trend import append_bench_rows

    family_names = list(families) if families else list(FAMILIES)
    kernel_names = list(kernels) if kernels else list(KERNELS)
    for name in family_names:
        if name not in FAMILIES:
            raise ValueError(
                f"unknown workload family {name!r}: expected one of "
                + ", ".join(FAMILIES)
            )
    resolved_scales = [resolve_scale(s) for s in scales]
    session = time.strftime("%Y-%m-%dT%H:%M:%S")
    rows: list[dict] = []
    by_family: dict[str, list[dict]] = {}
    for fam_name in family_names:
        family = FAMILIES[fam_name]
        for scale in resolved_scales:
            for sem in semantics:
                outcomes = {}
                for kernel in kernel_names:
                    row, instance = run_cell(
                        family, scale, kernel, semantics=sem,
                        seed=seed, reps=reps, session=session,
                    )
                    rows.append(row)
                    by_family.setdefault(fam_name, []).append(row)
                    outcomes[kernel] = instance
                    if progress is not None:
                        progress(
                            f"{row['name']} {kernel}/{row['config']['semantics']}:"
                            f" {row['min_ms']:.2f} ms min"
                            f" ({row['facts_out']} facts)"
                        )
                if verify and len(outcomes) > 1:
                    baseline_kernel = next(iter(outcomes))
                    baseline = outcomes[baseline_kernel]
                    for kernel, instance in outcomes.items():
                        if not _outcomes_agree(baseline, instance):
                            raise AssertionError(
                                f"kernel disagreement on "
                                f"{fam_name}[{scale}]/{sem}: "
                                f"{baseline_kernel} vs {kernel}"
                            )
    root = pathlib.Path(root) if root is not None else pathlib.Path.cwd()
    touched = []
    for fam_name, fam_rows in sorted(by_family.items()):
        touched.append(append_bench_rows(
            root / f"BENCH_{fam_name}.json", fam_rows))
    return rows, touched

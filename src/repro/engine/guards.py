"""Execution guards: bounded, cancellable fixpoint evaluation.

The paper flags non-terminating oid invention as the central hazard of
the semantics (Section 3.3).  :class:`~repro.engine.fixpoint.EvalConfig`
bounds iterations; a :class:`ResourceGuard` holds every other budget,
and every engine run has one (the configured guard, or a default one):

* a **wall-clock timeout** (seconds, monotonic clock),
* a **max-derived-facts** budget on the live fact count (default
  :data:`DEFAULT_MAX_FACTS`),
* a **max-invented-oids** budget checked *at invention sites* (so a
  single runaway iteration cannot overshoot the budget arbitrarily;
  default :data:`DEFAULT_MAX_INVENTIONS`),
* a **max-fact-size** budget on the scalar width of any derived fact
  (oid invention paired with collection constructors can grow values,
  not just fact counts), and
* **cooperative cancellation**: any thread may call :meth:`cancel`; the
  engine observes the flag at the next iteration boundary or invention.

Every breach raises the deterministic
:class:`~repro.errors.EvalBudgetExceeded` naming the budget that
tripped; the engine kernels attach the partial
:class:`~repro.engine.fixpoint.EvalStats` and a consistent
partial-state snapshot before propagating, and the CLI renders the
breach as a structured diagnostic with exit status 3
(``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import EvalBudgetExceeded
from repro.values.complex import (
    MultisetValue,
    SequenceValue,
    SetValue,
    TupleValue,
)

#: budget name → stable diagnostic code (``docs/DIAGNOSTICS.md``).
BUDGET_CODES: dict[str, str] = {
    "timeout": "LG801",
    "max_facts": "LG802",
    "max_inventions": "LG803",
    "max_fact_size": "LG804",
    "cancelled": "LG805",
    "max_iterations": "LG806",
}

#: what a fact or invention budget left at ``None`` resolves to: no run
#: is unbounded in facts or oids
DEFAULT_MAX_FACTS = 1_000_000
DEFAULT_MAX_INVENTIONS = 100_000


def value_size(value) -> int:
    """The scalar width of a value: how many elementary leaves it holds."""
    if isinstance(value, TupleValue):
        return sum(value_size(v) for _, v in value.items)
    if isinstance(value, (SetValue, SequenceValue)):
        return sum(value_size(v) for v in value) or 1
    if isinstance(value, MultisetValue):
        return sum(value_size(v) * n for v, n in value.counts) or 1
    return 1


@dataclass
class ResourceGuard:
    """Runtime budgets carried by :class:`~repro.engine.fixpoint.EvalConfig`.

    A guard is *armed* by :meth:`arm` at the start of every engine run
    (that is when the timeout deadline is fixed); cancellation is sticky
    across runs until :meth:`reset`, so a guard shared with a
    controlling thread keeps refusing work after a cancel.

    ``max_facts`` and ``max_inventions`` left at ``None`` resolve to
    :data:`DEFAULT_MAX_FACTS` and :data:`DEFAULT_MAX_INVENTIONS` on
    construction; ``timeout`` and ``max_fact_size`` left at ``None``
    are unbounded.
    """

    timeout: float | None = None        # wall-clock seconds per run
    max_facts: int | None = None        # live facts, checked per iteration
    max_inventions: int | None = None   # invented oids, checked on invent
    max_fact_size: int | None = None    # scalar leaves per derived fact
    _deadline: float | None = field(default=None, repr=False, compare=False)
    _cancelled: bool = field(default=False, repr=False, compare=False)
    _on_breach: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_facts is None:
            self.max_facts = DEFAULT_MAX_FACTS
        if self.max_inventions is None:
            self.max_inventions = DEFAULT_MAX_INVENTIONS

    # ------------------------------------------------------------------
    def arm(self, on_breach=None) -> "ResourceGuard":
        """Fix the timeout deadline for one run.

        ``on_breach`` is a zero-argument callable invoked (best-effort)
        right before the breach exception is raised — the engine passes
        the instrumentation's ``flush``, so an aborted run's trace file
        still ends on a complete JSON line."""
        if self.timeout is not None:
            self._deadline = time.monotonic() + self.timeout
        self._on_breach = on_breach
        return self

    def cancel(self) -> None:
        """Cooperative cancellation: observed at the next check point."""
        self._cancelled = True

    def reset(self) -> None:
        self._cancelled = False
        self._deadline = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # ------------------------------------------------------------------
    # check points
    # ------------------------------------------------------------------
    def check_iteration(
        self, facts: int | None = None, inventions: int | None = None
    ) -> None:
        """Iteration-boundary check: all four kernels call this before
        starting an iteration (`docs/ROBUSTNESS.md`)."""
        self._check_interrupt()
        if facts is not None and facts > self.max_facts:
            self._trip("max_facts", self.max_facts, facts,
                       f"fact budget exceeded ({facts} live facts,"
                       f" limit {self.max_facts})")
        if inventions is not None and inventions > self.max_inventions:
            self._trip("max_inventions", self.max_inventions, inventions,
                       f"oid invention budget exceeded ({inventions} oids,"
                       f" limit {self.max_inventions})")

    def on_invention(self, inventions: int) -> None:
        """Invention-site check (:mod:`repro.engine.step`): a runaway
        inventing rule is stopped mid-iteration, not one iteration
        late."""
        self._check_interrupt()
        if inventions > self.max_inventions:
            self._trip("max_inventions", self.max_inventions, inventions,
                       f"oid invention budget exceeded ({inventions} oids,"
                       f" limit {self.max_inventions})")

    def check_fact_size(self, pred: str, value) -> None:
        if self.max_fact_size is None:
            return
        size = value_size(value)
        if size > self.max_fact_size:
            self._trip("max_fact_size", self.max_fact_size, size,
                       f"derived {pred!r} fact has {size} scalar"
                       f" component(s), limit {self.max_fact_size}")

    # ------------------------------------------------------------------
    def _check_interrupt(self) -> None:
        if self._cancelled:
            self._trip("cancelled", None, None,
                       "evaluation cancelled cooperatively")
        if self._deadline is not None:
            now = time.monotonic()
            if now > self._deadline:
                overrun = now - (self._deadline - (self.timeout or 0.0))
                self._trip("timeout", self.timeout, overrun,
                           f"wall-clock timeout exceeded"
                           f" ({overrun:.3f}s elapsed,"
                           f" limit {self.timeout:g}s)")

    def _trip(self, budget: str, limit, observed, message: str) -> None:
        if self._on_breach is not None:
            try:
                self._on_breach()
            except Exception:
                pass  # flushing telemetry must never mask the breach
        raise EvalBudgetExceeded(
            message, budget=budget, limit=limit, observed=observed
        )

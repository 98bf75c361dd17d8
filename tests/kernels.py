"""The one reference configuration of the kernel-equivalence suites.

``EvalConfig(incremental=False)`` selects the reference kernel: the
naive, copying, unplanned and uncompiled executable specification of
the one-step operator under every semantics
(:mod:`repro.engine.fixpoint`).  Every suite that pins a fast path
compares against this configuration; a suite that needs an iteration
budget or a guard derives from it with :func:`dataclasses.replace`.
"""

from repro import EvalConfig

REFERENCE = EvalConfig(incremental=False)

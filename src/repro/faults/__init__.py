"""Deterministic fault injection for serve shard workers.

A :class:`FaultPlan` — a small JSON document passed to ``repro serve
--workers --inject-faults`` — makes chosen shard-worker operations raise,
hang, or SIGKILL their worker, *bit reproducibly*: every decision is a
pure function of ``(plan, label, attempt)``, with probabilistic rules
driven by the blake2b streams of :func:`repro.utils.procs.derive_unit`.

Split:

- :mod:`repro.faults.plan` — the declarative plan (specs, parsing, the
  ``decide`` function);
- :mod:`repro.faults.inject` — the imperative injection point the shard
  worker loop calls.

The consumer is :mod:`repro.serve.workers`:
``tests/integration/test_chaos_serve.py`` kills a live shard worker and
pins that journal-replay failover finishes digest-identical.
"""

from __future__ import annotations

from repro.faults.inject import FaultInjected, install_plan, maybe_inject
from repro.faults.plan import KINDS, FaultPlan, FaultSpec

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "install_plan",
    "maybe_inject",
]

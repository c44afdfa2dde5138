"""The composed online solvers.

- :func:`solve_rate_limited` — DeltaLRU-EDF directly (Theorem 1's setting);
- :func:`solve_batched` — Distribute ∘ DeltaLRU-EDF (Theorem 2);
- :func:`solve_online` — VarBatch ∘ Distribute ∘ DeltaLRU-EDF (Theorem 3),
  the paper's complete solution to ``[Delta | 1 | D_l | 1]``.

Each returns a :class:`PipelineResult` carrying the inner simulation (for
instrumentation: epochs, event log) and the pulled-back schedule expressed
against the *original* instance, whose cost is what the experiments report.

Because every reduction layer attaches ``origin`` pointers to the *native*
job, the pull-back from the innermost schedule to the original instance is a
single step regardless of how many layers were applied.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ledger import CostLedger
from repro.core.request import Instance
from repro.core.schedule import Schedule
from repro.core.simulator import SimulationResult, simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.reductions import distribute as _distribute
from repro.reductions import varbatch as _varbatch


@dataclass
class PipelineResult:
    """Outcome of a layered solve, expressed against the original instance."""

    instance: Instance
    n: int
    schedule: Schedule
    ledger: CostLedger
    inner: SimulationResult
    layers: tuple[str, ...]

    @property
    def total_cost(self) -> int:
        return self.ledger.total_cost

    @property
    def reconfig_cost(self) -> int:
        return self.ledger.reconfig_cost

    @property
    def drop_cost(self) -> int:
        return self.ledger.drop_cost

    @property
    def policy(self) -> DeltaLRUEDFPolicy:
        return self.inner.policy  # type: ignore[return-value]


def _finish(
    instance: Instance,
    n: int,
    schedule: Schedule,
    inner: SimulationResult,
    layers: tuple[str, ...],
) -> PipelineResult:
    ledger = schedule.ledger(instance.sequence, instance.delta)
    return PipelineResult(
        instance=instance,
        n=n,
        schedule=schedule,
        ledger=ledger,
        inner=inner,
        layers=layers,
    )


def solve_rate_limited(
    instance: Instance,
    n: int,
    *,
    policy: DeltaLRUEDFPolicy | None = None,
    record_events: bool = True,
) -> PipelineResult:
    """Run DeltaLRU-EDF directly on a rate-limited batched instance."""
    pol = policy if policy is not None else DeltaLRUEDFPolicy(instance.delta)
    inner = simulate(instance, pol, n, record_events=record_events)
    return _finish(instance, n, inner.schedule, inner, ("dlru-edf",))


def solve_batched(
    instance: Instance,
    n: int,
    *,
    policy: DeltaLRUEDFPolicy | None = None,
    record_events: bool = True,
) -> PipelineResult:
    """Algorithm Distribute: split into sub-colors, solve, pull back."""
    split = _distribute.distribute_sequence(instance.sequence)
    split_instance = Instance(split, instance.delta, name=f"{instance.name}:distributed")
    pol = policy if policy is not None else DeltaLRUEDFPolicy(instance.delta)
    inner = simulate(split_instance, pol, n, record_events=record_events)
    schedule = _distribute.pull_back_schedule(inner.schedule, split, instance.sequence)
    return _finish(instance, n, schedule, inner, ("distribute", "dlru-edf"))


def solve_online(
    instance: Instance,
    n: int,
    *,
    policy: DeltaLRUEDFPolicy | None = None,
    record_events: bool = True,
) -> PipelineResult:
    """Algorithm VarBatch: the full solution for ``[Delta | 1 | D_l | 1]``.

    Delays every job to its half-block boundary (VarBatch), splits oversized
    batches into sub-colors (Distribute), runs DeltaLRU-EDF, and pulls the
    schedule back to the original jobs in one step via the chained ``origin``
    pointers.
    """
    batched = _varbatch.varbatch_sequence(instance.sequence)
    split = _distribute.distribute_sequence(batched)
    split_instance = Instance(split, instance.delta, name=f"{instance.name}:varbatched")
    pol = policy if policy is not None else DeltaLRUEDFPolicy(instance.delta)
    inner = simulate(split_instance, pol, n, record_events=record_events)
    schedule = _distribute.pull_back_schedule(inner.schedule, split, instance.sequence)
    return _finish(instance, n, schedule, inner, ("varbatch", "distribute", "dlru-edf"))

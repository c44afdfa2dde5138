"""Per-color drop costs — the ``c_l`` drop field (extension).

The paper's framework (Section 2) parameterizes problems as
``[reconfig | drop | delay | batch]``; this paper fixes ``drop = 1`` while
the companion variant (Plaxton et al., SPAA 2006, cited as [14]) studies
``[Delta | c_l | D | D]`` — uniform delay bounds but a per-color drop cost
``c_l``.  This module adds the *cost model* and the natural weight-aware
generalization of the eligibility machinery to this codebase:

- instances carry a ``weights`` map (``metadata["weights"]``, color → cost
  per dropped job); :func:`weighted_cost` scores any schedule under it;
- :class:`WeightAwarePolicy` is DeltaLRU-EDF with one change: the counter
  of color ``l`` advances by ``w_l`` per arriving job and still wraps at
  ``Delta`` — a color becomes eligible once the *value at stake* (not the
  job count) reaches the price of a reconfiguration, which is exactly the
  role the paper's counter plays for unit drop costs (Lemma 3.1's
  drop-vs-configure tradeoff, reweighted).

No competitive claim is made for the weight-aware policy; ablation A5
measures it against the weight-blind original on skewed workloads.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.job import Color, Job
from repro.core.request import Instance, Request, RequestSequence
from repro.core.schedule import Schedule
from repro.policies.dlru_edf import DeltaLRUEDFPolicy


def weighted_workload(
    num_colors: int = 6,
    horizon: int = 128,
    delta: int = 4,
    seed: int = 0,
    uniform_bound: int = 4,
    load: float = 0.6,
    weight_skew: float = 1.5,
    name: str = "weighted",
) -> Instance:
    """Uniform-delay batched workload with Zipf-skewed per-color drop costs.

    The companion variant's setting: every color shares one delay bound
    ``D`` (arrivals at multiples of ``D``), but dropping a color-``l`` job
    costs ``w_l``.  Weights follow ``w_l ∝ (l+1)^-skew`` rescaled to mean 1,
    so total weighted volume is comparable to the unit-cost setting.
    """
    rng = np.random.default_rng(seed)
    raw = np.array([(i + 1.0) ** -weight_skew for i in range(num_colors)])
    weights = raw * (num_colors / raw.sum())
    jobs: list[Job] = []
    for color in range(num_colors):
        for start in range(0, horizon, uniform_bound):
            count = int(rng.binomial(uniform_bound, load))
            jobs.extend(
                Job(color=color, arrival=start, delay_bound=uniform_bound)
                for _ in range(count)
            )
    seq = RequestSequence(jobs)
    return Instance(
        seq, delta, name=name,
        metadata={
            "seed": seed,
            "weights": {c: float(weights[c]) for c in range(num_colors)},
        },
    )


def weights_of(instance: Instance) -> Mapping[Color, float]:
    """The instance's per-color drop costs (default 1 per color)."""
    weights = instance.metadata.get("weights")
    if weights is None:
        return {color: 1.0 for color in instance.sequence.colors()}
    return weights  # type: ignore[return-value]


def weighted_cost(
    schedule: Schedule,
    instance: Instance,
) -> float:
    """Total cost under per-color drop weights.

    Reconfiguration cost is unchanged (``Delta`` each); each dropped
    color-``l`` job costs ``w_l`` instead of 1.
    """
    weights = weights_of(instance)
    executed = schedule.executed_uids()
    drop_cost = sum(
        weights.get(job.color, 1.0)
        for job in instance.sequence.jobs()
        if job.uid not in executed
    )
    return schedule.reconfig_count() * instance.delta + drop_cost


class WeightAwarePolicy(DeltaLRUEDFPolicy):
    """DeltaLRU-EDF whose counters advance by the color's drop weight.

    With unit weights this is *exactly* DeltaLRU-EDF (the weighted counter
    equals the job count), which the tests pin down.  With skewed weights,
    expensive colors become eligible after fewer jobs (their value at stake
    reaches ``Delta`` sooner) and cheap colors may never earn a slot —
    mirroring Lemma 3.1's drop-or-configure argument per unit of value.
    """

    def __init__(self, delta: int | float, weights: Mapping[Color, float],
                 **kwargs):
        super().__init__(delta, **kwargs)
        self.weights = dict(weights)

    def bind(self, sim) -> None:
        super().bind(sim)
        # The weighted arrival hook below bypasses the base state hook, so
        # it cannot feed the incremental rankings their per-round deltas;
        # run on the (bit-identical) full re-sort path on either engine.
        self.incremental = False

    def on_arrival_phase(self, rnd: int, request: Request) -> None:
        # Reimplements SectionThreeState.on_arrival_phase with weighted
        # counter increments; everything else (deadlines, wraps, epochs,
        # timestamps) is byte-identical to the base machinery.
        state = self.state
        by_color = request.by_color()
        for color, jobs in by_color.items():
            st = state.state(color, jobs[0].delay_bound)
            if not state.gate_eligibility:
                st.eligible = True
                st.seen = True
        for color, st in state.states.items():
            if rnd % st.delay_bound != 0:
                continue
            st.dd = rnd + st.delay_bound
            arrivals = by_color.get(color, ())
            if arrivals:
                st.seen = True
                st.cnt += len(arrivals) * self.weights.get(color, 1.0)
            if st.cnt >= state.delta:
                st.cnt %= state.delta
                st.record_wrap(rnd)
                if state.track_history:
                    state.wrap_events.append((rnd, color))
                if not st.eligible:
                    st.eligible = True


def run_weighted(
    instance: Instance,
    n: int,
    weight_aware: bool = True,
    record_events: bool = False,
):
    """Simulate (weight-aware or weight-blind) and return
    ``(SimulationResult, weighted total cost)``."""
    from repro.core.simulator import simulate

    if weight_aware:
        policy = WeightAwarePolicy(instance.delta, weights_of(instance))
    else:
        policy = DeltaLRUEDFPolicy(instance.delta)
    run = simulate(instance, policy, n=n, record_events=record_events)
    return run, weighted_cost(run.schedule, instance)

"""Metamorphic invariance properties.

- The exact optimum is invariant under color relabeling (permuting color
  identities cannot change the optimal cost — a strong sanity check that no
  component leaks identity-dependent behavior into *costs*).
- The whole simulation stack is deterministic: running the same policy on
  the same instance twice yields byte-identical schedules (guards against
  hidden set/dict iteration-order dependence).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.simulator import simulate
from repro.opt import solve_opt
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.reductions.pipeline import solve_online

from tests.conftest import jobs_strategy

tiny_jobs = jobs_strategy(max_jobs=10, max_colors=3, max_round=8, batched=True)
general_jobs = jobs_strategy(max_jobs=20, max_colors=4, max_round=12)


@given(jobs=tiny_jobs, delta=st.integers(1, 3), offset=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_optimal_cost_invariant_under_color_relabeling(jobs, delta, offset):
    instance = Instance(RequestSequence(jobs), delta)
    relabeled = Instance(
        RequestSequence([
            Job(color=job.color + offset, arrival=job.arrival,
                delay_bound=job.delay_bound)
            for job in instance.sequence.jobs()
        ]),
        delta,
    )
    assert solve_opt(instance, 1).cost == solve_opt(relabeled, 1).cost


@given(jobs=tiny_jobs, delta=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_optimal_cost_invariant_under_color_reversal(jobs, delta):
    """Reversing the color order is harsher than shifting: tie-breaking
    flips everywhere, yet the optimal *cost* must not move."""
    instance = Instance(RequestSequence(jobs), delta)
    top = max((job.color for job in instance.sequence.jobs()), default=0)
    reversed_inst = Instance(
        RequestSequence([
            Job(color=top - job.color, arrival=job.arrival,
                delay_bound=job.delay_bound)
            for job in instance.sequence.jobs()
        ]),
        delta,
    )
    assert solve_opt(instance, 1).cost == solve_opt(reversed_inst, 1).cost


@given(jobs=general_jobs, delta=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_simulation_is_deterministic(jobs, delta):
    instance = Instance(RequestSequence(jobs), delta)
    a = simulate(instance, DeltaLRUEDFPolicy(delta), n=4)
    b = simulate(instance, DeltaLRUEDFPolicy(delta), n=4)
    assert a.schedule.reconfigs == b.schedule.reconfigs
    assert a.schedule.executions == b.schedule.executions
    assert a.total_cost == b.total_cost


@given(jobs=general_jobs, delta=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_pipeline_is_deterministic(jobs, delta):
    instance = Instance(RequestSequence(jobs), delta)
    a = solve_online(instance, n=4, record_events=False)
    b = solve_online(instance, n=4, record_events=False)
    assert a.total_cost == b.total_cost
    assert a.schedule.executed_uids() == b.schedule.executed_uids()

"""Property-based tests for the exact offline solver and its bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.core.simulator import simulate
from repro.offline.bounds import opt_lower_bound
from repro.offline.heuristic import window_planner_cost
from repro.opt import solve_opt
from repro.policies.baselines import GreedyUtilizationPolicy, StaticPartitionPolicy
from repro.policies.dlru_edf import DeltaLRUEDFPolicy

from tests.conftest import jobs_strategy

# The exact solver is exponential; keep instances tiny.
tiny_jobs = jobs_strategy(max_jobs=10, max_colors=3, max_round=8, batched=True)


@given(jobs=tiny_jobs, delta=st.integers(1, 3), m=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_optimal_schedule_achieves_optimal_cost(jobs, delta, m):
    instance = Instance(RequestSequence(jobs), delta)
    result = solve_opt(instance, m)
    led = validate_schedule(result.schedule, instance.sequence, delta)
    assert led.total_cost == result.cost


@given(jobs=tiny_jobs, delta=st.integers(1, 3), m=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_lower_bound_sound(jobs, delta, m):
    instance = Instance(RequestSequence(jobs), delta)
    assert opt_lower_bound(instance, m) <= solve_opt(instance, m).cost


@given(jobs=tiny_jobs, delta=st.integers(1, 3), m=st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_heuristic_upper_bounds_opt(jobs, delta, m):
    instance = Instance(RequestSequence(jobs), delta)
    assert window_planner_cost(instance, m) >= solve_opt(instance, m).cost


@given(jobs=tiny_jobs, delta=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_no_online_policy_beats_opt_at_equal_resources(jobs, delta):
    """OPT(m) <= cost of any online policy given the same m resources."""
    instance = Instance(RequestSequence(jobs), delta)
    m = 4
    opt = solve_opt(instance, m).cost
    for policy in (
        DeltaLRUEDFPolicy(delta),
        StaticPartitionPolicy(),
        GreedyUtilizationPolicy(),
    ):
        run = simulate(instance, policy, n=m, record_events=False)
        assert opt <= run.total_cost


@given(jobs=tiny_jobs, delta=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_optimal_monotone_in_resources(jobs, delta):
    instance = Instance(RequestSequence(jobs), delta)
    assert solve_opt(instance, 2).cost <= solve_opt(instance, 1).cost


@given(jobs=tiny_jobs)
@settings(max_examples=30, deadline=None)
def test_optimal_monotone_in_delta(jobs):
    instance_cheap = Instance(RequestSequence(jobs), 1)
    instance_dear = Instance(RequestSequence(jobs), 3)
    assert solve_opt(instance_cheap, 1).cost <= solve_opt(instance_dear, 1).cost


@given(jobs=tiny_jobs, delta=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_optimal_at_most_drop_everything(jobs, delta):
    instance = Instance(RequestSequence(jobs), delta)
    assert solve_opt(instance, 1).cost <= instance.sequence.num_jobs

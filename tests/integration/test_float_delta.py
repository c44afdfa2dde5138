"""Tests for the arbitrary-Delta generalization.

The paper assumes an integer ``Delta`` for convenience and notes the
generalization to arbitrary positive ``Delta`` is straightforward; the
implementation accepts any positive float.
"""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.core.simulator import simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.direct import DirectLRUEDFPolicy
from repro.reductions.pipeline import solve_online
from repro.workloads.generators import poisson_workload, rate_limited_workload


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestFloatDeltaModel:
    def test_instance_accepts_float(self):
        inst = Instance(RequestSequence([J(0, 0, 2)]), delta=2.5)
        assert inst.delta == 2.5

    def test_nonpositive_rejected(self):
        for bad in (0, 0.0, -1.5):
            with pytest.raises(ValueError):
                Instance(RequestSequence([J(0, 0, 2)]), delta=bad)

    def test_fractional_delta_below_one(self):
        """Delta < 1: a single arrival wraps the counter immediately."""
        inst = Instance(RequestSequence([J(0, 0, 2)]), delta=0.5)
        run = simulate(inst, DeltaLRUEDFPolicy(0.5), n=4)
        assert run.drop_cost == 0
        assert run.ledger.reconfig_cost == pytest.approx(2 * 0.5)

    def test_cost_arithmetic_is_float(self):
        jobs = [J(0, 0, 4) for _ in range(5)]
        inst = Instance(RequestSequence(jobs), delta=1.25)
        run = simulate(inst, DeltaLRUEDFPolicy(1.25), n=4)
        led = validate_schedule(run.schedule, inst.sequence, 1.25)
        assert led.total_cost == pytest.approx(run.total_cost)

    def test_counter_wraps_at_float_threshold(self):
        # delta=2.5: eligibility needs 3 jobs (counts are integers).
        jobs = [J(0, 0, 4) for _ in range(2)]
        inst = Instance(RequestSequence(jobs), delta=2.5)
        policy = DeltaLRUEDFPolicy(2.5)
        run = simulate(inst, policy, n=4)
        assert not policy.state.states[0].eligible
        assert run.drop_cost == 2

        jobs3 = [J(0, 0, 4) for _ in range(3)]
        inst3 = Instance(RequestSequence(jobs3), delta=2.5)
        policy3 = DeltaLRUEDFPolicy(2.5)
        run3 = simulate(inst3, policy3, n=4)
        assert policy3.state.states[0].eligible
        assert run3.drop_cost == 0


class TestFloatDeltaPipelines:
    def test_full_pipeline_with_float_delta(self):
        base = poisson_workload(num_colors=4, horizon=48, delta=3, seed=9)
        inst = Instance(base.sequence, delta=3.75, name="float-delta")
        res = solve_online(inst, n=8, record_events=False)
        led = validate_schedule(res.schedule, inst.sequence, 3.75)
        assert led.total_cost == pytest.approx(res.total_cost)

    def test_direct_policy_with_float_delta(self):
        base = rate_limited_workload(num_colors=4, horizon=32, delta=2, seed=3)
        inst = Instance(base.sequence, delta=1.5)
        run = simulate(inst, DirectLRUEDFPolicy(1.5), n=4, record_events=False)
        assert run.total_cost >= 0

    def test_optimal_solver_with_float_delta(self):
        from repro.opt import solve_opt

        jobs = [J(0, 0, 4) for _ in range(3)]
        inst = Instance(RequestSequence(jobs), delta=2.5)
        # Reconfiguring once (2.5) beats dropping three jobs (3.0).
        assert solve_opt(inst, 1).cost == pytest.approx(2.5)

    def test_optimal_prefers_drops_under_large_float_delta(self):
        from repro.opt import solve_opt

        jobs = [J(0, 0, 4) for _ in range(3)]
        inst = Instance(RequestSequence(jobs), delta=3.5)
        assert solve_opt(inst, 1).cost == pytest.approx(3.0)

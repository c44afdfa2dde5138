"""End-to-end integration tests across all layers."""

import pytest

from repro.analysis.competitive import empirical_ratio_bracket, empirical_ratio_exact
from repro.core.schedule import validate_schedule
from repro.core.simulator import simulate
from repro.opt import solve_opt
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.reductions.pipeline import solve_batched, solve_online, solve_rate_limited
from repro.workloads.generators import (
    batched_workload,
    poisson_workload,
    rate_limited_workload,
)
from repro.workloads.scenarios import (
    background_shortterm_instance,
    datacenter_workload,
    router_workload,
)


class TestTheorem1EndToEnd:
    """Rate-limited batched input, n = 8m, against the exact optimum."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bounded_ratio_against_exact_opt(self, seed):
        inst = rate_limited_workload(
            num_colors=4, horizon=32, delta=2, seed=seed,
            load=0.4, max_exp=3,
        )
        res = solve_rate_limited(inst, n=8, record_events=False)
        ratio = empirical_ratio_exact(res.total_cost, inst, m=1)
        assert ratio < 16, f"seed {seed}: ratio {ratio}"


class TestTheorem2EndToEnd:
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_pipeline_bracket(self, seed):
        inst = batched_workload(num_colors=4, horizon=64, delta=3, seed=seed)
        res = solve_batched(inst, n=8, record_events=False)
        bracket = empirical_ratio_bracket(res.total_cost, inst, m=1)
        assert bracket.ratio_high < 20


class TestTheorem3EndToEnd:
    @pytest.mark.parametrize("seed", range(3))
    def test_general_pipeline_bracket(self, seed):
        inst = poisson_workload(
            num_colors=4, horizon=96, delta=3, seed=seed, rate=0.25
        )
        res = solve_online(inst, n=8, record_events=False)
        bracket = empirical_ratio_bracket(res.total_cost, inst, m=1)
        assert bracket.ratio_high < 30

    def test_non_power_of_two_general(self):
        inst = poisson_workload(
            num_colors=4, horizon=64, delta=2, seed=11,
            rate=0.3, power_of_two=False,
        )
        res = solve_online(inst, n=8, record_events=False)
        validate_schedule(res.schedule, inst.sequence, inst.delta)


class TestScenarioWorkloads:
    def test_datacenter_runs_clean(self):
        inst = datacenter_workload(num_services=6, horizon=256, delta=4, seed=0)
        res = solve_online(inst, n=16, record_events=False)
        led = validate_schedule(res.schedule, inst.sequence, inst.delta)
        assert led.total_cost == res.total_cost

    def test_router_runs_clean(self):
        inst = router_workload(num_classes=5, horizon=256, delta=4, seed=0)
        res = solve_online(inst, n=16, record_events=False)
        validate_schedule(res.schedule, inst.sequence, inst.delta)

    def test_background_shortterm_served_by_pipeline(self):
        inst = background_shortterm_instance()
        res = solve_online(inst, n=16, record_events=False)
        validate_schedule(res.schedule, inst.sequence, inst.delta)
        # With 16 resources the pipeline should serve the vast majority.
        completion = len(res.schedule.executed_uids()) / inst.sequence.num_jobs
        assert completion > 0.8


class TestCrossLayerConsistency:
    def test_direct_vs_pipeline_on_rate_limited(self):
        """On a rate-limited instance, Distribute's split is a no-op (every
        batch fits in sub-color 0), so solve_batched == solve_rate_limited."""
        inst = rate_limited_workload(num_colors=4, horizon=32, delta=2, seed=5)
        direct = solve_rate_limited(inst, n=8, record_events=False)
        viabatch = solve_batched(inst, n=8, record_events=False)
        assert direct.total_cost == viabatch.total_cost

    def test_opt_never_beaten_at_equal_resources(self):
        inst = rate_limited_workload(
            num_colors=3, horizon=16, delta=2, seed=6, max_exp=2
        )
        opt = solve_opt(inst, m=4).cost
        run = simulate(inst, DeltaLRUEDFPolicy(inst.delta), n=4, record_events=False)
        assert opt <= run.total_cost

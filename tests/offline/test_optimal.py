"""Unit tests for the exact offline optimum (:func:`repro.opt.solve_opt`):
exact values, the validated schedule and its cost breakdown, guards."""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.opt import SearchBudgetExceeded, compile_model, solve_opt

from tests.opt import reference_dp


def inst_of(jobs, delta=2):
    return Instance(RequestSequence(jobs), delta=delta)


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestExactValues:
    def test_empty_instance_costs_nothing(self):
        assert solve_opt(inst_of([]), m=1).cost == 0

    def test_single_job_costs_min_of_delta_and_drop(self):
        # One job: either configure (delta) or drop (1).
        assert solve_opt(inst_of([J(0, 0, 2)], delta=3), m=1).cost == 1
        assert solve_opt(inst_of([J(0, 0, 2)], delta=1), m=1).cost == 1

    def test_many_jobs_justify_reconfiguration(self):
        jobs = [J(0, 0, 8) for _ in range(5)]
        assert solve_opt(inst_of(jobs, delta=3), m=1).cost == 3

    def test_capacity_forces_drops(self):
        # 4 jobs, deadline 2, one resource: at most 2 executions.
        jobs = [J(0, 0, 2) for _ in range(4)]
        assert solve_opt(inst_of(jobs, delta=1), m=1).cost == 1 + 2

    def test_two_colors_one_resource(self):
        # Colors interleave; delta=1 so switching is cheap.
        jobs = [J(0, 0, 2), J(1, 0, 2), J(0, 2, 2), J(1, 2, 2)]
        cost = solve_opt(inst_of(jobs, delta=1), m=1).cost
        # Serve one color per batch (2 reconfigs + 2 drops) or switch within
        # batches; either way 4 is achievable and optimal here:
        # round 0: color0, round 1: color1, round 2: color0, round 3: color1
        # -> 4 reconfigs? No: config persists; switching each round = 4
        # reconfigs.  Serving color0 rounds 0,2 and color1 rounds 1,3 needs
        # reconfig each round (4).  Alternative: color0 at 0, color1 at 1,
        # color0 at 2... any full service costs 4; dropping 2 of one color
        # costs 1 reconfig + 2 drops = 3.
        assert cost == 3

    def test_second_resource_helps(self):
        jobs = [J(0, 0, 2), J(1, 0, 2), J(0, 2, 2), J(1, 2, 2)]
        one = solve_opt(inst_of(jobs, delta=1), m=1).cost
        two = solve_opt(inst_of(jobs, delta=1), m=2).cost
        assert two == 2  # one reconfig per color, everything served
        assert two < one

    def test_replication_on_one_color(self):
        # 4 jobs of one color, deadline 2, two resources: double-configure.
        jobs = [J(0, 0, 2) for _ in range(4)]
        assert solve_opt(inst_of(jobs, delta=1), m=2).cost == 2

    def test_monotone_in_m(self):
        jobs = [J(c % 3, r, 2) for r in range(0, 6, 2) for c in range(4)]
        inst = inst_of(jobs, delta=2)
        costs = [solve_opt(inst, m).cost for m in (1, 2, 3)]
        assert costs == sorted(costs, reverse=True)

    def test_monotone_in_delta(self):
        jobs = [J(0, 0, 4) for _ in range(4)] + [J(1, 0, 4) for _ in range(4)]
        costs = [
            solve_opt(inst_of(jobs, delta=d), m=1).cost for d in (1, 2, 4, 8)
        ]
        assert costs == sorted(costs)

    def test_agrees_with_reference_dp(self):
        jobs = [J(c % 3, r, 2) for r in range(0, 6, 2) for c in range(4)]
        inst = inst_of(jobs, delta=2)
        for m in (1, 2, 3):
            model = compile_model(inst, m)
            expected = reference_dp.solve_brute(model).cost
            assert solve_opt(inst, m).cost == expected


class TestScheduleReconstruction:
    def test_schedule_achieves_reported_cost(self):
        jobs = [J(c % 2, r, 2) for r in range(0, 8, 2) for c in range(3)]
        inst = inst_of(jobs, delta=2)
        result = solve_opt(inst, m=2)
        led = validate_schedule(result.schedule, inst.sequence, inst.delta)
        assert led.total_cost == result.cost

    def test_breakdown_properties(self):
        jobs = [J(0, 0, 4) for _ in range(3)]
        inst = inst_of(jobs, delta=2)
        result = solve_opt(inst, m=1)
        assert result.cost == result.reconfig_cost + result.drop_cost
        assert result.states > 0

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            solve_opt(inst_of([J(0, 0, 2)]), m=0)

    def test_budget_guard(self):
        jobs = [J(c, r, 4) for r in range(0, 16, 4) for c in range(4)]
        inst = inst_of(jobs, delta=1)
        with pytest.raises(SearchBudgetExceeded):
            solve_opt(inst, m=2, max_states=10)


class TestAgainstBruteForceIntuition:
    def test_never_below_lower_bounds(self):
        from repro.offline.bounds import opt_lower_bound

        jobs = [J(c % 3, r, 2) for r in range(0, 8, 2) for c in range(4)]
        inst = inst_of(jobs, delta=2)
        for m in (1, 2):
            assert solve_opt(inst, m).cost >= opt_lower_bound(inst, m)

    def test_never_above_heuristic(self):
        from repro.offline.heuristic import window_planner_cost

        jobs = [J(c % 3, r, 4) for r in range(0, 12, 4) for c in range(4)]
        inst = inst_of(jobs, delta=2)
        for m in (1, 2):
            assert solve_opt(inst, m).cost <= window_planner_cost(inst, m)

"""Unit tests for the window-planning offline heuristic."""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.offline.heuristic import window_planner_cost, window_planner_schedule
from repro.opt import solve_opt
from repro.workloads.generators import rate_limited_workload, uniform_workload


def inst_of(jobs, delta=2):
    return Instance(RequestSequence(jobs), delta=delta)


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestWindowPlanner:
    def test_schedule_validates(self):
        inst = rate_limited_workload(num_colors=4, horizon=32, delta=2, seed=0)
        schedule = window_planner_schedule(inst, m=2)
        led = validate_schedule(schedule, inst.sequence, inst.delta)
        assert led.total_cost == window_planner_cost(inst, 2)

    def test_serves_trivial_single_color(self):
        jobs = [J(0, 0, 8) for _ in range(4)]
        inst = inst_of(jobs, delta=2)
        assert window_planner_cost(inst, 1) == 2  # one reconfiguration

    def test_skips_unprofitable_colors(self):
        # One job, delta=5: dropping (1) beats configuring (5).
        inst = inst_of([J(0, 0, 2)], delta=5)
        assert window_planner_cost(inst, 1) == 1

    def test_upper_bounds_opt(self):
        for seed in range(3):
            inst = uniform_workload(
                num_colors=3, horizon=10, delta=2, seed=seed,
                jobs_per_round=1, max_exp=2,
            )
            assert window_planner_cost(inst, 1) >= solve_opt(inst, 1).cost

    def test_keeps_configured_colors_across_windows(self):
        jobs = [J(0, a, 4) for a in (0, 4, 8, 12) for _ in range(3)]
        inst = inst_of(jobs, delta=3)
        schedule = window_planner_schedule(inst, m=1, window=4)
        assert schedule.reconfig_count() == 1

    def test_invalid_args(self):
        inst = inst_of([J(0, 0, 2)])
        with pytest.raises(ValueError):
            window_planner_schedule(inst, m=0)
        with pytest.raises(ValueError):
            window_planner_schedule(inst, m=1, window=0)

    def test_explicit_window_respected(self):
        inst = rate_limited_workload(num_colors=3, horizon=32, delta=2, seed=5)
        a = window_planner_cost(inst, 2, window=4)
        b = window_planner_cost(inst, 2, window=16)
        assert a >= 0 and b >= 0  # both run; values may differ

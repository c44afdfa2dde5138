"""Unit tests for competitive-ratio measurement."""

import pytest

from repro.analysis.competitive import (
    RatioBracket,
    empirical_ratio_bracket,
    empirical_ratio_exact,
)
from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.workloads.generators import rate_limited_workload, uniform_workload


class TestRatioBracket:
    def test_low_at_most_high(self):
        bracket = RatioBracket(online_cost=10, opt_upper=5, opt_lower=2)
        assert bracket.ratio_low == 2.0
        assert bracket.ratio_high == 5.0
        assert bracket.ratio_low <= bracket.ratio_high

    def test_zero_bounds_give_inf(self):
        bracket = RatioBracket(online_cost=10, opt_upper=0, opt_lower=0)
        assert bracket.ratio_high == float("inf")


class TestExactRatio:
    def test_matches_manual_computation(self):
        inst = uniform_workload(
            num_colors=2, horizon=8, delta=2, seed=0,
            jobs_per_round=1, max_exp=2,
        )
        from repro.opt import solve_opt
        opt = solve_opt(inst, 1).cost
        assert empirical_ratio_exact(opt * 3, inst, 1) == pytest.approx(3.0)

    def test_zero_over_zero(self):
        inst = Instance(RequestSequence([]), delta=1)
        assert empirical_ratio_exact(0, inst, 1) == 0.0

    def test_positive_over_zero(self):
        inst = Instance(RequestSequence([]), delta=1)
        assert empirical_ratio_exact(5, inst, 1) == float("inf")


class TestBracket:
    def test_brackets_exact_value(self):
        """The bracket must contain the exact ratio on solvable instances."""
        from repro.opt import solve_opt

        inst = rate_limited_workload(
            num_colors=3, horizon=16, delta=2, seed=1, max_exp=2
        )
        opt = solve_opt(inst, 1).cost
        online_cost = 3 * opt  # any value; the bracket is about OPT
        bracket = empirical_ratio_bracket(online_cost, inst, 1)
        exact = online_cost / opt
        assert bracket.ratio_low <= exact + 1e-9
        assert exact <= bracket.ratio_high + 1e-9

    def test_upper_never_below_lower(self):
        inst = rate_limited_workload(num_colors=4, horizon=32, delta=3, seed=2)
        bracket = empirical_ratio_bracket(100, inst, 1)
        assert bracket.opt_lower <= bracket.opt_upper

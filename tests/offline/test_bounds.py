"""Unit tests for the OPT lower bounds."""

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.offline.bounds import color_lower_bound, drop_lower_bound, opt_lower_bound
from repro.opt import solve_opt
from repro.workloads.generators import rate_limited_workload, uniform_workload


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestDropLowerBound:
    def test_zero_when_capacity_suffices(self):
        seq = RequestSequence([J(0, 0, 4), J(1, 0, 4)])
        assert drop_lower_bound(seq, 2) == 0

    def test_counts_unavoidable_drops(self):
        seq = RequestSequence([J(0, 0, 1) for _ in range(4)])
        assert drop_lower_bound(seq, 1) == 3

    def test_monotone_in_m(self):
        seq = RequestSequence([J(c % 2, r, 2) for r in range(6) for c in range(3)])
        assert drop_lower_bound(seq, 1) >= drop_lower_bound(seq, 2)


class TestColorLowerBound:
    def test_caps_at_delta_per_color(self):
        seq = RequestSequence([J(0, 0, 4) for _ in range(10)])
        assert color_lower_bound(seq, delta=3) == 3

    def test_small_colors_count_their_jobs(self):
        seq = RequestSequence([J(0, 0, 4), J(1, 0, 4), J(1, 4, 4)])
        assert color_lower_bound(seq, delta=5) == 1 + 2

    def test_sums_over_colors(self):
        seq = RequestSequence(
            [J(c, 0, 4) for c in range(3) for _ in range(9)]
        )
        assert color_lower_bound(seq, delta=2) == 6


class TestOptLowerBound:
    def test_is_max_of_components(self):
        seq = RequestSequence([J(0, 0, 1) for _ in range(6)])
        inst = Instance(seq, delta=2)
        assert opt_lower_bound(inst, 1) == max(
            drop_lower_bound(seq, 1), color_lower_bound(seq, 2)
        )

    def test_sound_against_exact_optimum(self):
        """The bound never exceeds the true optimum on solvable instances."""
        for seed in range(4):
            inst = uniform_workload(
                num_colors=3, horizon=10, delta=2, seed=seed,
                jobs_per_round=1, max_exp=2,
            )
            for m in (1, 2):
                assert opt_lower_bound(inst, m) <= solve_opt(inst, m).cost

    def test_sound_on_rate_limited(self):
        inst = rate_limited_workload(
            num_colors=3, horizon=16, delta=2, seed=1, max_exp=2
        )
        assert opt_lower_bound(inst, 1) <= solve_opt(inst, 1).cost

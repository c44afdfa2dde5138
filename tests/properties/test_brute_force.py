"""Differential testing: the exact-OPT DP vs the brute-force oracle.

The two solvers share no code — :mod:`repro.opt.brute` works on
multiset states with memoization and feasibility pruning; the oracle
(``tests/opt/exhaustive.py``) enumerates raw per-resource choices.  Agreement on arbitrary micro
instances is the strongest correctness evidence the exact solver has.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.opt import solve_opt

from tests.conftest import jobs_strategy
from tests.opt.exhaustive import brute_force_cost

micro_jobs = jobs_strategy(
    max_jobs=6, max_colors=2, max_round=3,
    bounds=st.sampled_from([1, 2]), batched=False,
)


@given(jobs=micro_jobs, delta=st.integers(1, 3), m=st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_optimal_matches_brute_force(jobs, delta, m):
    instance = Instance(RequestSequence(jobs), delta)
    assert solve_opt(instance, m).cost == brute_force_cost(instance, m)


@given(jobs=jobs_strategy(max_jobs=5, max_colors=3, max_round=2,
                          bounds=st.sampled_from([1, 2]), batched=False),
       delta=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_optimal_matches_brute_force_three_colors(jobs, delta):
    instance = Instance(RequestSequence(jobs), delta)
    assert solve_opt(instance, 1).cost == brute_force_cost(instance, 1)


class TestBruteForceDirect:
    def test_empty(self):
        assert brute_force_cost(Instance(RequestSequence([]), 1), 1) == 0

    def test_single_job(self):
        inst = Instance(RequestSequence([Job(color=0, arrival=0, delay_bound=2)]), 3)
        assert brute_force_cost(inst, 1) == 1  # drop beats a Delta=3 reconfig

    def test_reconfigure_when_worth_it(self):
        jobs = [Job(color=0, arrival=0, delay_bound=4) for _ in range(4)]
        inst = Instance(RequestSequence(jobs), 2)
        assert brute_force_cost(inst, 1) == 2

    def test_refuses_large_search_space(self):
        jobs = [Job(color=c, arrival=r, delay_bound=2)
                for r in range(10) for c in range(4)]
        inst = Instance(RequestSequence(jobs), 1)
        with pytest.raises(ValueError, match="search space"):
            brute_force_cost(inst, 3)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            brute_force_cost(Instance(RequestSequence([]), 1), 0)

"""Property tests for the opt subsystem.

Two families:

1. **Exhaustive differential testing** on tiny instances (every multiset
   of up to 3 jobs drawn from a 2-color / 4-round universe): the brute
   backend and the exhaustive oracle (``tests/opt/exhaustive.py``) must
   agree *exactly*, for m in {1, 2}.
2. **OPT is a true lower bound**: on seeded workloads, the optimum never
   exceeds any online policy's cost, under every round engine.
"""

import itertools

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.simulator import simulate
from repro.opt import compile_model, solve_brute, solve_opt
from repro.policies import make_policy
from repro.workloads import lb_adversary_workload, uniform_workload

from tests.opt.exhaustive import brute_force_cost

# The tiny-instance universe: colors {0, 1}, arrivals {0, 1, 2}, bounds
# {1, 2} — every deadline lands within 4 rounds.
TINY_JOB_SPACE = [
    (color, arrival, bound)
    for color in (0, 1)
    for arrival in (0, 1, 2)
    for bound in (1, 2)
]


def tiny_instances(max_jobs=3, delta=1):
    """Every multiset of at most ``max_jobs`` jobs from the tiny universe."""
    for k in range(max_jobs + 1):
        for combo in itertools.combinations_with_replacement(
            TINY_JOB_SPACE, k
        ):
            jobs = [
                Job(color=c, arrival=a, delay_bound=b) for c, a, b in combo
            ]
            yield Instance(RequestSequence(jobs), delta=delta)


class TestExhaustiveTinyDifferential:
    @pytest.mark.parametrize("m", [1, 2])
    def test_brute_matches_oracle_everywhere(self, m):
        checked = 0
        for inst in tiny_instances(max_jobs=3, delta=1):
            model = compile_model(inst, m)
            assert solve_brute(model).cost == brute_force_cost(inst, m), (
                [(j.color, j.arrival, j.delay_bound)
                 for j in inst.sequence.jobs()], m,
            )
            checked += 1
        assert checked > 200  # the enumeration really is exhaustive

    def test_delta_two_slice_agrees_too(self):
        # A smaller delta=2 slice: fractions of the cost trade-off differ.
        for inst in tiny_instances(max_jobs=2, delta=2):
            model = compile_model(inst, m=1)
            assert solve_brute(model).cost == brute_force_cost(inst, 1)


POLICIES = ("dlru", "edf", "dlru-edf")
ENGINES = ("reference", "incremental")


def workload_cases():
    return [
        uniform_workload(
            num_colors=3, horizon=8, delta=2, seed=0, jobs_per_round=1,
            min_exp=0, max_exp=2, name="uniform-tiny",
        ),
        lb_adversary_workload(kind="edf", delta=2, seed=0),
    ]


class TestOptIsALowerBound:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_opt_never_exceeds_any_policy(self, engine):
        # n = m = 4: same resources online and offline (dlru-edf needs
        # n divisible by 4), so OPT <= policy cost is a theorem.
        for instance in workload_cases():
            opt = solve_opt(instance, 4, engine=engine)
            assert opt.validated
            for policy_name in POLICIES:
                run = simulate(
                    instance,
                    make_policy(policy_name, instance.delta),
                    n=4,
                    record_events=False,
                    engine=engine,
                )
                assert opt.cost <= run.total_cost, (
                    instance.name, policy_name, engine,
                )

    def test_adversary_gap_is_strict(self):
        instance = lb_adversary_workload(kind="edf", delta=2, seed=0)
        opt = solve_opt(instance, 4)
        run = simulate(
            instance, make_policy("edf", instance.delta), n=4,
            record_events=False,
        )
        assert run.total_cost > opt.cost

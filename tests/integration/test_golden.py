"""Golden regression tests.

Every value here was captured from a verified build (all schedules
validated, exact solver differentially tested against the brute-force
oracle).  A change in any number means an intentional behavioral change —
update the constant *and* say why in the commit — or a regression.

These guard determinism end to end: generator seeding, policy tie-breaking
(the "consistent order of colors"), reduction bookkeeping, and solver search
order are all pinned by these sums.
"""

import pytest

from repro.core.simulator import simulate
from repro.offline.bounds import opt_lower_bound
from repro.offline.heuristic import window_planner_cost
from repro.opt import solve_opt
from repro.policies import (
    ClassicLRUPolicy,
    DeltaLRUEDFPolicy,
    DeltaLRUPolicy,
    DirectLRUEDFPolicy,
    EDFPolicy,
    GreedyUtilizationPolicy,
    StaticPartitionPolicy,
)
from repro.reductions.pipeline import solve_batched, solve_online, solve_rate_limited
from repro.workloads.generators import (
    batched_workload,
    bursty_workload,
    poisson_workload,
    rate_limited_workload,
)

GOLDEN = dict([
    ("rl42/dlru", 89),
    ("rl42/edf", 97),
    ("rl42/dlru-edf", 111),
    ("ps42/static", 16),
    ("ps42/classic", 16),
    ("ps42/greedy", 96),
    ("ps42/direct", 167),
    ("rl42/solve_rate_limited", 111),
    ("bt42/solve_batched", 1016),
    ("ps42/solve_online", 140),
    ("bu42/solve_online", 179),
    ("small42/opt_m1", 21),
    ("small42/opt_m2", 13),
    ("rl42/planner_m1", 183),
    ("rl42/lb_m1", 166),
])


@pytest.fixture(scope="module")
def instances():
    return {
        "rl": rate_limited_workload(num_colors=5, horizon=64, delta=3, seed=42),
        "bt": batched_workload(num_colors=4, horizon=64, delta=3, seed=42),
        "ps": poisson_workload(num_colors=5, horizon=64, delta=3, seed=42),
        "bu": bursty_workload(num_colors=5, horizon=64, delta=3, seed=42),
        "small": rate_limited_workload(
            num_colors=3, horizon=16, delta=2, seed=42, max_exp=2
        ),
    }


class TestGoldenPolicies:
    @pytest.mark.parametrize("name,factory", [
        ("dlru", lambda: DeltaLRUPolicy(3)),
        ("edf", lambda: EDFPolicy(3)),
        ("dlru-edf", lambda: DeltaLRUEDFPolicy(3)),
    ])
    def test_section3_policies_on_rate_limited(self, instances, name, factory):
        run = simulate(instances["rl"], factory(), n=8, record_events=False)
        assert run.total_cost == GOLDEN[f"rl42/{name}"]

    @pytest.mark.parametrize("name,factory", [
        ("static", StaticPartitionPolicy),
        ("classic", ClassicLRUPolicy),
        ("greedy", GreedyUtilizationPolicy),
        ("direct", lambda: DirectLRUEDFPolicy(3)),
    ])
    def test_baselines_on_poisson(self, instances, name, factory):
        run = simulate(instances["ps"], factory(), n=8, record_events=False)
        assert run.total_cost == GOLDEN[f"ps42/{name}"]


class TestGoldenSolvers:
    def test_solve_rate_limited(self, instances):
        res = solve_rate_limited(instances["rl"], n=8, record_events=False)
        assert res.total_cost == GOLDEN["rl42/solve_rate_limited"]

    def test_solve_batched(self, instances):
        res = solve_batched(instances["bt"], n=8, record_events=False)
        assert res.total_cost == GOLDEN["bt42/solve_batched"]

    def test_solve_online_poisson(self, instances):
        res = solve_online(instances["ps"], n=8, record_events=False)
        assert res.total_cost == GOLDEN["ps42/solve_online"]

    def test_solve_online_bursty(self, instances):
        res = solve_online(instances["bu"], n=8, record_events=False)
        assert res.total_cost == GOLDEN["bu42/solve_online"]


class TestGoldenOffline:
    def test_exact_optimum(self, instances):
        assert solve_opt(instances["small"], 1).cost == GOLDEN["small42/opt_m1"]
        assert solve_opt(instances["small"], 2).cost == GOLDEN["small42/opt_m2"]

    def test_window_planner(self, instances):
        assert window_planner_cost(instances["rl"], 1) == GOLDEN["rl42/planner_m1"]

    def test_lower_bound(self, instances):
        assert opt_lower_bound(instances["rl"], 1) == GOLDEN["rl42/lb_m1"]

    def test_bound_bracket_is_consistent(self, instances):
        assert GOLDEN["rl42/lb_m1"] <= GOLDEN["rl42/planner_m1"]

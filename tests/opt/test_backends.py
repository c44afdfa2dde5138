"""Backend tests: registry semantics and validation wiring.

The exact values and the search budget guard are pinned through
``solve_opt`` in ``tests/offline/test_optimal.py``.
"""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.workloads import poisson_workload
from repro.opt import BACKENDS, resolve_backend, solve_opt


def inst_of(jobs, delta=2):
    return Instance(RequestSequence(jobs), delta=delta)


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestRegistry:
    def test_backend_names(self):
        assert BACKENDS == ("brute",)

    def test_brute_always_available(self):
        assert resolve_backend("brute") == "brute"

    def test_auto_and_none_resolve_to_brute(self):
        assert resolve_backend(None) == "brute"
        assert resolve_backend("auto") == "brute"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown opt backend"):
            resolve_backend("simplex")


class TestValidationWiring:
    def test_result_is_validated_with_digests(self):
        jobs = [J(c % 2, r, 2) for r in range(0, 8, 2) for c in range(3)]
        result = solve_opt(inst_of(jobs, delta=2), m=2)
        assert result.validated
        assert result.digests["run"]
        assert result.replay_digest
        assert result.cost == result.reconfig_cost + result.drop_cost

    def test_truncated_horizon_reconciles_excluded_jobs(self):
        jobs = [J(0, 0, 2), J(0, 6, 2), J(0, 7, 2)]
        result = solve_opt(inst_of(jobs, delta=1), m=1, horizon=4)
        assert result.excluded_jobs == 2
        # In-model: one job, delta=1 -> configure once.
        assert result.cost == 1

    def test_non_dyadic_delta_publishes_the_ledger_cost(self):
        # The search sums dropped + added * delta + rest in recursion
        # order; at delta = 0.1 that sum is 10.499999999999998 while the
        # replay ledger's reconfigs * delta + drops is 10.5.  The published
        # cost must be the ledger's, or decode rejects the optimum.
        inst = poisson_workload(
            num_colors=3, horizon=12, delta=0.1, seed=0, rate=0.5,
            min_exp=0, max_exp=2,
        )
        result = solve_opt(inst, 1)
        assert result.cost == 10.5
        assert result.cost == result.reconfig_count * 0.1 + result.unserved

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.7])
    def test_non_dyadic_deltas_validate(self, delta):
        for m in (1, 2):
            for seed in range(3):
                inst = poisson_workload(
                    num_colors=3, horizon=12, delta=delta, seed=seed,
                    rate=0.5, min_exp=0, max_exp=2,
                )
                result = solve_opt(inst, m)
                assert result.cost == (
                    result.reconfig_count * delta + result.unserved
                )

    def test_replay_engines_agree(self):
        jobs = [J(c % 2, r, 3) for r in range(0, 6, 2) for c in range(3)]
        inst = inst_of(jobs, delta=2)
        results = [
            solve_opt(inst, 2, engine=engine)
            for engine in ("reference", "incremental")
        ]
        costs = {r.cost for r in results}
        digests = {r.digests["run"] for r in results}
        assert len(costs) == 1 and len(digests) == 1


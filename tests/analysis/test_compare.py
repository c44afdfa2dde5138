"""Unit tests for the policy comparison helper."""

from repro.analysis.compare import compare_policies, standard_policy_set
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.baselines import GreedyUtilizationPolicy
from repro.workloads.generators import rate_limited_workload


def make_instance(seed=0):
    return rate_limited_workload(num_colors=5, horizon=48, delta=3, seed=seed)


class TestComparePolicies:
    def test_runs_every_policy(self):
        inst = make_instance()
        cmp = compare_policies(
            inst,
            [("a", lambda: DeltaLRUEDFPolicy(3)),
             ("b", GreedyUtilizationPolicy)],
            n=8,
        )
        assert set(cmp.metrics) == {"a", "b"}

    def test_metrics_match_direct_simulation(self):
        from repro.core.simulator import simulate

        inst = make_instance(1)
        cmp = compare_policies(
            inst, [("x", lambda: DeltaLRUEDFPolicy(3))], n=8
        )
        direct = simulate(inst, DeltaLRUEDFPolicy(3), n=8, record_events=False)
        assert cmp.metrics["x"].total_cost == direct.total_cost

    def test_include_pipeline(self):
        inst = make_instance(2)
        cmp = compare_policies(inst, [], n=8, include_pipeline=True)
        assert "pipeline" in cmp.metrics
        assert cmp.metrics["pipeline"].total_cost >= 0

    def test_best_names_cheapest(self):
        inst = make_instance(3)
        cmp = compare_policies(
            inst, standard_policy_set(3), n=8, include_pipeline=True
        )
        best = cmp.best()
        assert cmp.metrics[best].total_cost == min(
            m.total_cost for m in cmp.metrics.values()
        )

    def test_table_sorted_by_cost(self):
        inst = make_instance(4)
        cmp = compare_policies(inst, standard_policy_set(3), n=8)
        table = cmp.table()
        costs = [int(row[3]) for row in table.rows]
        assert costs == sorted(costs)

    def test_mapping_form_accepted(self):
        inst = make_instance(5)
        cmp = compare_policies(
            inst, {"only": lambda: DeltaLRUEDFPolicy(3)}, n=8
        )
        assert list(cmp.metrics) == ["only"]

    def test_standard_set_has_fresh_state(self):
        """Factories must yield fresh policies — running twice must not
        accumulate state across comparisons."""
        inst = make_instance(6)
        policies = standard_policy_set(3)
        first = compare_policies(inst, policies, n=8)
        second = compare_policies(inst, policies, n=8)
        for name in first.metrics:
            assert first.metrics[name].total_cost == second.metrics[name].total_cost

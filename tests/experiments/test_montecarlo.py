"""Unit tests for the seed-replication helpers."""

import pytest

from repro.experiments.montecarlo import Replication, replicate


class TestReplication:
    def test_mean_and_stdev(self):
        rep = Replication((1.0, 2.0, 3.0))
        assert rep.mean == pytest.approx(2.0)
        assert rep.stdev == pytest.approx(1.0)

    def test_single_value_has_zero_spread(self):
        rep = Replication((5.0,))
        assert rep.stdev == 0.0
        assert rep.ci_halfwidth() == 0.0

    def test_ci_shrinks_with_n(self):
        narrow = Replication(tuple([1.0, 2.0] * 50))
        wide = Replication((1.0, 2.0))
        assert narrow.ci_halfwidth() < wide.ci_halfwidth()

    def test_contains_uses_interval(self):
        rep = Replication((1.0, 2.0, 3.0, 2.0, 2.0))
        assert 2.0 in rep
        assert 100.0 not in rep

    def test_summary_format(self):
        text = Replication((1.0, 2.0)).summary()
        assert "±" in text and "n=2" in text


class TestReplicate:
    def test_calls_metric_per_seed(self):
        rep = replicate(lambda seed: float(seed * seed), seeds=range(4))
        assert rep.values == (0.0, 1.0, 4.0, 9.0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, seeds=[])

    def test_real_metric_end_to_end(self):
        from repro.reductions.pipeline import solve_rate_limited
        from repro.workloads.generators import rate_limited_workload

        def cost(seed: int) -> float:
            inst = rate_limited_workload(
                num_colors=4, horizon=32, delta=2, seed=seed
            )
            return solve_rate_limited(inst, n=8, record_events=False).total_cost

        rep = replicate(cost, seeds=range(5))
        assert rep.n == 5
        assert rep.mean > 0


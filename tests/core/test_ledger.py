"""Unit tests for repro.core.ledger."""

import pytest

from repro.core.ledger import CostLedger


class TestCostLedger:
    def test_empty_costs(self):
        led = CostLedger(delta=4)
        assert led.total_cost == 0
        assert led.reconfig_cost == 0
        assert led.drop_cost == 0

    def test_reconfig_cost_scales_with_delta(self):
        led = CostLedger(delta=5)
        led.charge_reconfig(0, "a")
        led.charge_reconfig(1, "b")
        assert led.reconfig_count == 2
        assert led.reconfig_cost == 10

    def test_drop_cost_unit(self):
        led = CostLedger(delta=5)
        led.charge_drop(0, "a")
        led.charge_drop(0, "a", count=3)
        assert led.drop_count == 4
        assert led.drop_cost == 4

    def test_charge_drops_counts_one_per_color_entry(self):
        batch = CostLedger(delta=2)
        batch.charge_drops(4, ["b", "a", "b"])
        single = CostLedger(delta=2)
        for color in ("b", "a", "b"):
            single.charge_drop(4, color)
        for led in (batch, single):
            assert led.drop_count == 3
            assert led.drops_per_round[4] == 3
        # Same counts in the same first-charged order (the digest's
        # per-color table depends on it).
        assert list(batch.drops_per_color.items()) == [("b", 2), ("a", 1)]
        assert batch.drops_per_color == single.drops_per_color

    def test_negative_drop_rejected(self):
        led = CostLedger(delta=1)
        with pytest.raises(ValueError):
            led.charge_drop(0, "a", count=-1)

    def test_total_cost(self):
        led = CostLedger(delta=3)
        led.charge_reconfig(0, "a")
        led.charge_drop(1, "b", count=2)
        assert led.total_cost == 5

    def test_per_color_breakdowns(self):
        led = CostLedger(delta=2)
        led.charge_reconfig(0, "a")
        led.charge_reconfig(3, "a")
        led.charge_drop(1, "b")
        assert led.reconfigs_per_color["a"] == 2
        assert led.drops_per_color["b"] == 1

    def test_per_round_breakdowns(self):
        led = CostLedger(delta=2)
        led.charge_reconfig(7, "a")
        led.charge_drop(7, "b", count=2)
        assert led.reconfigs_per_round[7] == 1
        assert led.drops_per_round[7] == 2

    def test_merged(self):
        a = CostLedger(delta=2)
        a.charge_reconfig(0, "x")
        b = CostLedger(delta=2)
        b.charge_drop(1, "y")
        merged = a.merged(b)
        assert merged.total_cost == 3
        assert merged.reconfigs_per_color["x"] == 1
        assert merged.drops_per_color["y"] == 1

    def test_merged_rejects_mismatched_delta(self):
        with pytest.raises(ValueError):
            CostLedger(delta=1).merged(CostLedger(delta=2))

    def test_summary_keys(self):
        led = CostLedger(delta=1)
        assert set(led.summary()) == {
            "reconfig_count", "reconfig_cost", "drop_count", "drop_cost", "total_cost",
        }

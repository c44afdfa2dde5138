"""Tests for the competitive-ratio dashboard (repro.opt.ratios)."""

import json
import pathlib

import pytest

from repro.opt import (
    BENCH_FORMAT,
    RATIO_POLICIES,
    ratio_cases,
    ratio_dashboard,
    render_dashboard,
    write_bench,
)


@pytest.fixture(scope="module")
def payload():
    return ratio_dashboard("quick")


class TestPayload:
    def test_format_and_checks(self, payload):
        assert payload["format"] == BENCH_FORMAT
        assert payload["backend"] == "brute"
        assert payload["ok"]
        assert payload["checks"] == {
            "all_validated": True,
            "opt_leq_policies": True,
            "adversary_gap": True,
        }

    def test_every_cell_is_complete(self, payload):
        assert len(payload["cells"]) == len(ratio_cases("quick"))
        for cell in payload["cells"]:
            assert cell["opt_validated"]
            assert cell["opt_digest"]
            assert cell["n"] == cell["m"] == 4
            assert set(cell["policy_costs"]) == set(RATIO_POLICIES)
            for policy_name in RATIO_POLICIES:
                cost = cell["policy_costs"][policy_name]
                assert cost >= cell["opt_cost"]
                if cell["opt_cost"]:
                    assert cell["ratios"][policy_name] == pytest.approx(
                        cost / cell["opt_cost"], abs=1e-4
                    )

    def test_adversary_cells_beat_every_policy(self, payload):
        adversaries = [c for c in payload["cells"] if c["adversary"]]
        assert len(adversaries) == 2
        for cell in adversaries:
            assert all(r > 1 for r in cell["ratios"].values()), cell

    def test_payload_is_json_serializable(self, payload, tmp_path):
        out = write_bench(payload, tmp_path / "BENCH_opt.json")
        restored = json.loads(out.read_text())
        assert restored["format"] == BENCH_FORMAT
        assert restored["ok"] is True

    def test_render_mentions_every_workload(self, payload):
        text = render_dashboard(payload)
        for cell in payload["cells"]:
            assert cell["workload"] in text
        assert "adversary_gap" in text


class TestNoResultCache:
    def test_use_cache_true_is_rejected(self):
        with pytest.raises(ValueError, match="use_cache must be False"):
            ratio_dashboard("quick", use_cache=True)

    def test_use_cache_false_equals_the_default_call(self, payload):
        explicit = ratio_dashboard("quick", use_cache=False)
        # opt_digest covers job uids, which this process mints afresh for
        # every instance it builds (a fresh process reproduces it).
        strip = lambda cells: [
            {k: v for k, v in c.items() if k != "opt_digest"} for c in cells
        ]
        assert strip(explicit["cells"]) == strip(payload["cells"])
        assert {k: v for k, v in explicit.items() if k != "cells"} == {
            k: v for k, v in payload.items() if k != "cells"
        }
        assert all("cached" not in c for c in explicit["cells"])


class TestScales:
    def test_full_scale_extends_quick(self):
        quick = {c.name for c in ratio_cases("quick")}
        full = {c.name for c in ratio_cases("full")}
        assert quick < full

    def test_policies_are_the_dashboard_trio(self):
        assert RATIO_POLICIES == ("dlru", "edf", "dlru-edf")


class TestCommittedArtifact:
    """The committed ``BENCH_opt.json`` is what the code computes today."""

    def test_fresh_quick_dashboard_reproduces_every_committed_cell(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        committed = json.loads((root / "BENCH_opt.json").read_text())
        fresh = ratio_dashboard(scale="quick")
        fields = (
            "opt_cost", "opt_states", "opt_reconfigs", "policy_costs",
            "ratios",
        )
        assert [c["workload"] for c in fresh["cells"]] == [
            c["workload"] for c in committed["cells"]
        ]
        for mine, theirs in zip(fresh["cells"], committed["cells"]):
            assert set(mine) == set(theirs), mine["workload"]
            for field in fields:
                assert mine[field] == theirs[field], (mine["workload"], field)

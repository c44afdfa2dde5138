"""Deterministic fault injection: plan parsing, decisions, the injection point."""

import json

import pytest

from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    install_plan,
    maybe_inject,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no installed plan."""
    install_plan(None)
    yield
    install_plan(None)


class TestPlanParsing:
    def test_object_document_with_seed(self):
        plan = FaultPlan.from_json(
            '{"seed": 9, "faults": [{"task": "E1", "kind": "raise"}]}'
        )
        assert plan.seed == 9
        assert plan.specs == (FaultSpec(task="E1", kind="raise"),)

    def test_bare_list_document(self):
        plan = FaultPlan.from_json('[{"task": "E1", "kind": "kill", "times": 2}]')
        assert plan.seed == 0
        assert plan.specs[0].times == 2

    def test_p_alias_for_probability(self):
        plan = FaultPlan.from_json('[{"task": "*", "kind": "raise", "p": 0.25}]')
        assert plan.specs[0].probability == 0.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json('[{"task": "E1", "kind": "explode"}]')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultPlan.from_json('[{"task": "E1", "kind": "raise", "when": "now"}]')

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(task="E1", kind="raise", probability=1.5)

    def test_from_arg_inline_json(self):
        plan = FaultPlan.from_arg('{"faults": [{"task": "A*", "kind": "hang"}]}')
        assert plan.specs[0].task == "A*"

    def test_from_arg_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": 3, "faults": [{"task": "E2", "kind": "kill"}]}')
        plan = FaultPlan.from_arg(str(path))
        assert plan.seed == 3 and plan.specs[0].kind == "kill"

    def test_from_arg_passthrough(self):
        plan = FaultPlan(specs=(FaultSpec(task="x", kind="raise"),))
        assert FaultPlan.from_arg(plan) is plan

    def test_json_round_trip_is_canonical(self):
        plan = FaultPlan.from_json(
            '{"seed": 5, "faults": ['
            '{"task": "E*", "kind": "hang", "hang_seconds": 7.5, "times": -1},'
            '{"task": "A2", "kind": "raise", "p": 0.5}]}'
        )
        text = plan.to_json()
        assert FaultPlan.from_json(text) == plan
        assert FaultPlan.from_json(text).to_json() == text
        json.loads(text)  # strictly valid JSON


class TestDecide:
    def test_times_bounds_attempts(self):
        plan = FaultPlan.from_json('[{"task": "E1", "kind": "raise", "times": 2}]')
        assert plan.decide("E1", 0) is not None
        assert plan.decide("E1", 1) is not None
        assert plan.decide("E1", 2) is None

    def test_times_minus_one_fires_forever(self):
        plan = FaultPlan.from_json('[{"task": "E1", "kind": "raise", "times": -1}]')
        assert plan.decide("E1", 40) is not None

    def test_glob_patterns_match_labels(self):
        plan = FaultPlan.from_json('[{"task": "A*", "kind": "raise"}]')
        assert plan.decide("A2", 0) is not None
        assert plan.decide("E2", 0) is None

    def test_first_matching_spec_wins(self):
        plan = FaultPlan.from_json(
            '[{"task": "E1", "kind": "hang"}, {"task": "E*", "kind": "kill"}]'
        )
        assert plan.decide("E1", 0).kind == "hang"
        assert plan.decide("E2", 0).kind == "kill"

    def test_probabilistic_coin_is_deterministic(self):
        plan = FaultPlan.from_json(
            '{"seed": 11, "faults": [{"task": "*", "kind": "raise", "p": 0.5,'
            ' "times": -1}]}'
        )
        first = [plan.decide(f"t{i}", 0) is not None for i in range(64)]
        second = [plan.decide(f"t{i}", 0) is not None for i in range(64)]
        assert first == second
        assert any(first) and not all(first)  # the coin actually thins

    def test_probability_zero_never_fires(self):
        plan = FaultPlan.from_json('[{"task": "*", "kind": "raise", "p": 0.0}]')
        assert all(plan.decide(f"t{i}", 0) is None for i in range(32))

    def test_coin_varies_with_plan_seed(self):
        doc = '[{"task": "*", "kind": "raise", "p": 0.5, "times": -1}]'
        a = FaultPlan.from_mapping({"seed": 1, "faults": json.loads(doc)})
        b = FaultPlan.from_mapping({"seed": 2, "faults": json.loads(doc)})
        draws_a = [a.decide(f"t{i}", 0) is not None for i in range(64)]
        draws_b = [b.decide(f"t{i}", 0) is not None for i in range(64)]
        assert draws_a != draws_b


class TestInjectionPoint:
    def test_no_plan_is_a_noop(self):
        assert maybe_inject("anything", 0) is None

    def test_raise_kind_raises(self):
        install_plan(FaultPlan.from_json('[{"task": "E1", "kind": "raise"}]'))
        with pytest.raises(FaultInjected, match="injected raise"):
            maybe_inject("E1", 0)
        assert maybe_inject("E1", 1) is None  # times=1: retry is clean

    def test_install_plan_returns_previous(self):
        first = FaultPlan.from_json('[{"task": "a", "kind": "raise"}]')
        assert install_plan(first) is None
        assert install_plan(None) is first


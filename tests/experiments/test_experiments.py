"""Integration tests: the whole experiment suite at quick scale.

Each experiment's internal checks encode the paper's claim for that
experiment (DESIGN.md §4); a failed check means the reproduction no longer
exhibits the paper's behaviour.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, run_experiment


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_checks_pass(experiment_id):
    result = run_experiment(experiment_id, "quick")
    failed = [c.description for c in result.checks if not c.passed]
    assert not failed, f"{experiment_id} failed: {failed}\n{result.table.render()}"


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_renders(experiment_id):
    result = run_experiment(experiment_id, "quick")
    text = result.render()
    assert result.experiment_id in text
    assert "|" in text  # a table is present


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        get_experiment("E99")


def test_lookup_case_insensitive():
    assert get_experiment("e1") is EXPERIMENTS["E1"]


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        run_experiment("E1", "galactic")


def test_registry_covers_design_document():
    expected = {f"E{i}" for i in range(1, 15) if i != 12} | {
        "A1", "A2", "A3", "A4", "A5",
    }
    assert set(EXPERIMENTS) == expected

"""Experiment registry: id → runner."""

from __future__ import annotations

from typing import Callable

from repro.experiments import ablations, adversarial, lemmas, panorama, scenario, theorems
from repro.experiments.common import ExperimentResult

EXPERIMENTS: dict[str, Callable[[str], ExperimentResult]] = {
    "E1": adversarial.run_e1,
    "E2": adversarial.run_e2,
    "E3": theorems.run_e3,
    "E4": adversarial.run_e4,
    "E5": lemmas.run_e5,
    "E6": lemmas.run_e6,
    "E7": lemmas.run_e7,
    "E8": theorems.run_e8,
    "E9": theorems.run_e9,
    "E10": scenario.run_e10,
    "E11": theorems.run_e11,
    "E13": panorama.run_e13,
    "E14": panorama.run_e14,
    "A1": ablations.run_a1,
    "A2": ablations.run_a2,
    "A3": ablations.run_a3,
    "A4": ablations.run_a4,
    "A5": ablations.run_a5,
}


def get_experiment(experiment_id: str) -> Callable[[str], ExperimentResult]:
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, scale: str = "quick") -> ExperimentResult:
    return get_experiment(experiment_id)(scale)

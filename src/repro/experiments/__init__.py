"""The E1–E11, E13, E14 / A1–A5 experiment suite.

The paper is theory-only; each experiment here empirically validates one of
its claims (DESIGN.md §4 maps experiments to claims).  Every experiment
function takes ``scale`` (``"quick"`` for CI-sized runs, ``"full"`` for the
CLI) and returns an :class:`ExperimentResult` whose ``checks`` are asserted
by the integration tests and whose ``table`` is what the benchmark harness
prints.

Execution goes through :mod:`repro.experiments.runner` — a process pool
with request-order reassembly and a content-addressed result cache
(:mod:`repro.experiments.cache`) — so ``repro all --jobs N`` is
bit-identical to a serial run at any ``N``.
"""

from repro.experiments.cache import ResultCache, cache_key, default_cache_dir
from repro.experiments.common import Check, ExperimentResult
from repro.experiments.montecarlo import Replication, replicate
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.runner import RunReport, TaskRecord, run_parallel

__all__ = [
    "ExperimentResult",
    "Check",
    "Replication",
    "replicate",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "RunReport",
    "TaskRecord",
    "run_parallel",
]

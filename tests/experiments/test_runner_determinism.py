"""Determinism of the parallel runner.

The engine's core guarantee: the number of workers and the order in which
tasks complete are *not inputs to the result*.  ``run_parallel(jobs=1)`` is
the reference execution; every parallel configuration must reproduce its
payloads bit-for-bit, and Monte-Carlo fan-out must be a pure function of
the root seed.
"""

import pytest

from repro.experiments.registry import DETERMINISTIC_EXPERIMENTS, TIMING_EXPERIMENTS
from repro.experiments.runner import replicate_parallel, run_parallel
from repro.reductions.pipeline import solve_rate_limited
from repro.workloads.generators import rate_limited_workload

# A fast sample spanning adversarial (E1/E2/E4), figure-shape (E14), and
# ablation (A2) experiments — every one in DETERMINISTIC_EXPERIMENTS.
SAMPLE = ["E1", "E2", "E4", "E14", "A2"]


def _pipeline_cost(seed: int) -> float:
    """Module-level metric so the process pool can pickle it."""
    instance = rate_limited_workload(num_colors=4, horizon=32, delta=2, seed=seed)
    return float(solve_rate_limited(instance, n=8, record_events=False).total_cost)


@pytest.fixture
def no_cache_kwargs(tmp_path):
    """Runner kwargs that keep every run cold and off the user's cache."""
    return {"cache_dir": tmp_path / "cache", "use_cache": False}


class TestExperimentFanout:
    def test_sample_is_deterministic_only(self):
        assert set(SAMPLE) <= set(DETERMINISTIC_EXPERIMENTS)
        assert not set(SAMPLE) & TIMING_EXPERIMENTS

    def test_serial_and_parallel_payloads_identical(self, no_cache_kwargs):
        # Every experiment but the wall-clock E12, as `repro all` runs them.
        ids = list(DETERMINISTIC_EXPERIMENTS)
        assert len(ids) == 18
        serial = run_parallel(ids, jobs=1, **no_cache_kwargs)
        parallel = run_parallel(ids, jobs=2, **no_cache_kwargs)
        assert list(serial.results) == list(parallel.results) == ids
        for eid in ids:
            assert serial.results[eid] == parallel.results[eid], eid
            assert (
                serial.results[eid].fingerprint()
                == parallel.results[eid].fingerprint()
            ), eid

    def test_parallel_render_is_byte_identical(self, no_cache_kwargs):
        serial = run_parallel(SAMPLE, jobs=1, **no_cache_kwargs)
        parallel = run_parallel(SAMPLE, jobs=3, **no_cache_kwargs)
        serial_text = "\n".join(r.render() for r in serial.results.values())
        parallel_text = "\n".join(r.render() for r in parallel.results.values())
        assert serial_text == parallel_text

    def test_records_follow_request_order(self, no_cache_kwargs):
        ids = ["E4", "E1", "E14"]  # deliberately not registry order
        report = run_parallel(ids, jobs=3, **no_cache_kwargs)
        assert [r.experiment_id for r in report.records] == ids
        assert list(report.results) == ids

    def test_repeated_runs_identical(self, no_cache_kwargs):
        first = run_parallel(["E1", "E2"], jobs=2, **no_cache_kwargs)
        second = run_parallel(["E1", "E2"], jobs=2, **no_cache_kwargs)
        for eid in ("E1", "E2"):
            assert first.results[eid] == second.results[eid]

    def test_unknown_experiment_rejected(self, no_cache_kwargs):
        with pytest.raises(KeyError):
            run_parallel(["E99"], **no_cache_kwargs)


class TestReplicationFanout:
    def test_worker_count_does_not_change_values(self):
        serial, _ = replicate_parallel(_pipeline_cost, "det-suite", 6,
                                       root_seed=7, jobs=1)
        fanned, _ = replicate_parallel(_pipeline_cost, "det-suite", 6,
                                       root_seed=7, jobs=4)
        assert serial.values == fanned.values

    def test_same_root_seed_bit_identical(self):
        a, _ = replicate_parallel(_pipeline_cost, "det-suite", 5, root_seed=3)
        b, _ = replicate_parallel(_pipeline_cost, "det-suite", 5, root_seed=3)
        assert a.values == b.values

    def test_different_root_seeds_differ(self):
        a, _ = replicate_parallel(_pipeline_cost, "det-suite", 5, root_seed=3)
        b, _ = replicate_parallel(_pipeline_cost, "det-suite", 5, root_seed=4)
        assert a.values != b.values

    def test_different_labels_draw_different_seeds(self):
        a, _ = replicate_parallel(_pipeline_cost, "study-a", 5, root_seed=3)
        b, _ = replicate_parallel(_pipeline_cost, "study-b", 5, root_seed=3)
        assert a.values != b.values

    def test_records_carry_derived_seeds(self):
        rep, records = replicate_parallel(_pipeline_cost, "det-suite", 4,
                                          root_seed=0, jobs=2)
        assert rep.n == 4
        seeds = [r.seed for r in records]
        assert len(set(seeds)) == 4
        assert all(not r.cache_hit for r in records)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            replicate_parallel(_pipeline_cost, "det-suite", 0)

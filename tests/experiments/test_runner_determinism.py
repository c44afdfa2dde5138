"""Determinism of the parallel runner.

The engine's core guarantee: the number of workers and the order in which
tasks complete are *not inputs to the result*.  ``run_parallel(jobs=1)`` is
the reference execution; every parallel configuration must reproduce its
payloads bit-for-bit.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import run_parallel

# A fast sample spanning adversarial (E1/E2/E4), figure-shape (E14), and
# ablation (A2) experiments.
SAMPLE = ["E1", "E2", "E4", "E14", "A2"]


@pytest.fixture
def no_cache_kwargs(tmp_path):
    """Runner kwargs that keep every run cold and off the user's cache."""
    return {"cache_dir": tmp_path / "cache", "use_cache": False}


class TestExperimentFanout:
    def test_sample_is_deterministic_only(self):
        # Every registry experiment is a pure function of its scale.
        assert set(SAMPLE) <= set(EXPERIMENTS)

    def test_serial_and_parallel_payloads_identical(self, no_cache_kwargs):
        # Every experiment, as `repro all` runs them.
        ids = list(EXPERIMENTS)
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


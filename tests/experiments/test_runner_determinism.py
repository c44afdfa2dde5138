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


class TestExperimentFanout:
    def test_sample_is_deterministic_only(self):
        # Every registry experiment is a pure function of its scale.
        assert set(SAMPLE) <= set(EXPERIMENTS)

    def test_serial_and_parallel_payloads_identical(self):
        # Every experiment, as `repro all` runs them.
        ids = list(EXPERIMENTS)
        assert len(ids) == 18
        serial = run_parallel(ids, jobs=1)
        parallel = run_parallel(ids, jobs=2)
        assert list(serial.results) == list(parallel.results) == ids
        for eid in ids:
            assert serial.results[eid] == parallel.results[eid], eid
            assert (
                serial.results[eid].fingerprint()
                == parallel.results[eid].fingerprint()
            ), eid

    def test_parallel_render_is_byte_identical(self):
        serial = run_parallel(SAMPLE, jobs=1)
        parallel = run_parallel(SAMPLE, jobs=3)
        serial_text = "\n".join(r.render() for r in serial.results.values())
        parallel_text = "\n".join(r.render() for r in parallel.results.values())
        assert serial_text == parallel_text

    def test_records_follow_request_order(self):
        ids = ["E4", "E1", "E14"]  # deliberately not registry order
        report = run_parallel(ids, jobs=3)
        assert [r.experiment_id for r in report.records] == ids
        assert list(report.results) == ids

    def test_repeated_runs_identical(self):
        first = run_parallel(["E1", "E2"], jobs=2)
        second = run_parallel(["E1", "E2"], jobs=2)
        for eid in ("E1", "E2"):
            assert first.results[eid] == second.results[eid]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_parallel(["E99"])


class TestNoStoredResults:
    def test_rerun_reports_what_the_current_code_computes(
        self, monkeypatch, tmp_path
    ):
        # A result store keyed on anything but the code itself would serve
        # the first run's title to the second run.
        import repro.experiments.registry as registry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_parallel(["E1"], jobs=1)
        original = registry.EXPERIMENTS["E1"]

        def retitled(scale):
            result = original(scale)
            result.title = "E1, retitled"
            return result

        monkeypatch.setitem(registry.EXPERIMENTS, "E1", retitled)
        second = run_parallel(["E1"], jobs=1)
        assert first.results["E1"].title != "E1, retitled"
        assert second.results["E1"].title == "E1, retitled"

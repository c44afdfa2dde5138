"""Cross-process determinism and perf-harness smoke tests.

The determinism contract: simulation results (ledger, schedule, events,
uids) depend only on the instance and the policy — never on the process's
``PYTHONHASHSEED``.  Integer colors hash to themselves and cannot catch a
leak, so these tests run string-colored workloads in fresh subprocesses
under several hash seeds and require one flat digest across every seed and
both engines.
"""

import json

import pytest

from repro.experiments import perf


class TestHashseedDeterminism:
    def test_in_process_digests_agree_across_engines(self):
        digests = perf.hashseed_digests()
        assert digests["incremental"] == digests["reference"]

    def test_subprocess_digests_identical_across_seeds(self):
        # One subprocess per PYTHONHASHSEED in {1, 7, 1234}; a raw-set
        # iteration anywhere on the hot path diverges here.
        report = perf.check_hashseed_determinism()
        assert report["seeds"] == list(perf.HASHSEED_SEEDS)
        assert len(report["seeds"]) >= 3
        assert report["identical"], report["digests"]


class TestPerfHarness:
    @pytest.fixture()
    def small_case(self, monkeypatch):
        case = perf.PerfCase(
            name="smoke",
            workload="rate-limited",
            params={"num_colors": 6, "horizon": 64, "delta": 4, "seed": 0},
            n=8,
            largest=True,
        )
        monkeypatch.setattr(perf, "CASES", (case,))
        return case

    def test_run_perf_digests_match(self, small_case):
        payload = perf.run_perf(scale="quick", repeats=1, check_hashseed=False)
        assert payload["schema"] == perf.SCHEMA
        assert payload["engines"] == ["reference", "incremental"]
        assert set(payload["host"]) == {"cpus", "python", "platform", "git_sha"}
        assert payload["all_digests_match"]
        [row] = payload["cases"]
        assert row["name"] == "smoke"
        assert row["reference_seconds"] > 0
        assert row["incremental_seconds"] > 0
        assert payload["largest_case"]["name"] == "smoke"
        assert payload["largest_case"]["gated"]

    def test_main_writes_report(self, small_case, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        rc = perf.main(
            ["--scale", "quick", "--repeats", "1", "--no-hashseed",
             "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["all_digests_match"]
        assert "hashseed" not in payload
        rendered = capsys.readouterr().out
        assert "smoke" in rendered

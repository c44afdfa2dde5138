"""The parallel runner's ``--stats`` report and its telemetry.

Per-worker recorders snapshot into plain dicts, ship home by value, and
merge with commutative operations — so the aggregated counters are a pure
function of the task list, not of worker count or completion order.
"""

from repro.experiments.runner import run_parallel

SAMPLE = ["E1", "E4", "E14"]


class TestRunnerTelemetry:
    def test_report_has_no_telemetry_by_default(self):
        report = run_parallel(SAMPLE, jobs=1)
        assert report.telemetry == {}
        assert "telemetry" not in report.stats_payload()

    def test_collects_merged_snapshot(self):
        report = run_parallel(SAMPLE, jobs=1, collect_telemetry=True)
        counters = report.telemetry["counters"]
        assert counters["repro_runner_tasks_total"][""] == len(SAMPLE)
        assert counters["repro_rounds_total"][""] > 0
        # per-task wall time lands in the aggregate histogram
        task_cells = report.telemetry["histograms"]["repro_task_seconds"]
        assert sum(c["count"] for c in task_cells.values()) == len(SAMPLE)

    def test_worker_count_does_not_change_counters(self):
        serial = run_parallel(SAMPLE, jobs=1, collect_telemetry=True)
        fanned = run_parallel(SAMPLE, jobs=3, collect_telemetry=True)
        # wall-time histograms legitimately vary; deterministic sections don't
        assert serial.telemetry["counters"] == fanned.telemetry["counters"]
        for name, series in serial.telemetry["histograms"].items():
            if name.endswith("_seconds"):
                continue
            assert series == fanned.telemetry["histograms"][name], name

    def test_stats_payload_and_write_stats_carry_telemetry(self, tmp_path):
        import json

        report = run_parallel(["E1"], jobs=1, collect_telemetry=True)
        payload = report.stats_payload()
        assert payload["telemetry"] == report.telemetry
        dest = report.write_stats(tmp_path / "out" / "stats.json")
        on_disk = json.loads(dest.read_text())
        assert on_disk["telemetry"]["counters"] == report.telemetry["counters"]


class TestStats:
    def test_stats_table_and_payload(self):
        report = run_parallel(["E1", "E2"], jobs=2)
        text = report.stats_table().render()
        assert "jobs=2, tasks 2" in text
        assert "E1" in text and "E2" in text
        payload = report.stats_payload()
        assert payload["tasks"] == 2
        assert [r["experiment_id"] for r in payload["records"]] == ["E1", "E2"]

    def test_rounds_surfaced_when_table_has_them(self):
        report = run_parallel(["E1"], jobs=1)
        # E1's table has a "rounds" column; the record sums it.
        assert report.records[0].rounds and report.records[0].rounds > 0
        assert report.records[0].checks_total == 3

"""The perfbench pair recorder's statistics, on canned run lines."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "benchmarks" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

METRICS = [
    {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher"},
    {"name": "round_p50_ms", "unit": "ms", "better": "lower"},
]


def run_line(jobs_per_s, p50, correct=True, failed=0):
    """The last stdout line of one ``perfbench/run.py`` run."""
    return "host: 2 CPUs\n" + json.dumps({
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
            "round_p50_ms": {"value": p50, "unit": "ms"},
        },
    })


class TestParseRun:
    def test_reads_the_last_line(self):
        result = record.parse_run(run_line(10.0, 1.5))
        assert result["metrics"]["jobs_per_s"]["value"] == 10.0

    @pytest.mark.parametrize("line", [
        run_line(10.0, 1.5, correct=False),
        run_line(10.0, 1.5, failed=1),
        "perfbench: no repro sources\n",
        "",
    ])
    def test_refuses_incorrect_failed_or_missing_results(self, line):
        with pytest.raises(record.RecordError):
            record.parse_run(line)


class TestSummarize:
    def pairs(self, base, change):
        return [
            (record.parse_run(run_line(*b)), record.parse_run(run_line(*c)))
            for b, c in zip(base, change)
        ]

    def test_spread_and_wins_in_each_direction(self):
        base = [(100, 2.0), (110, 2.0), (90, 3.0), (105, 1.0), (95, 2.5)]
        change = [(120, 1.0), (110, 2.0), (80, 2.0), (130, 1.0), (99, 3.0)]
        summary = record.summarize(self.pairs(base, change), METRICS)
        assert summary["pairs"] == 5
        jobs = summary["base"]["jobs_per_s"]
        assert jobs["runs"] == [100, 110, 90, 105, 95]
        assert (jobs["q1"], jobs["median"], jobs["q3"]) == (95, 100, 105)
        assert jobs["unit"] == "jobs/s"
        assert summary["change"]["jobs_per_s"]["median"] == 110
        # higher is better: 120>100, 130>105, 99>95 win; 110=110 ties.
        assert summary["change_wins"]["jobs_per_s"] == 3
        # lower is better: 1<2 and 2<3 win; 2=2 and 1=1 tie; 3>2.5 loses.
        assert summary["change_wins"]["round_p50_ms"] == 2

    def test_even_run_count_interpolates(self):
        base = [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]
        summary = record.summarize(self.pairs(base, base), METRICS)
        jobs = summary["base"]["jobs_per_s"]
        assert (jobs["q1"], jobs["median"], jobs["q3"]) == (1.75, 2.5, 3.25)
        assert summary["change_wins"] == {"jobs_per_s": 0, "round_p50_ms": 0}

    def test_no_pairs_is_an_error(self):
        with pytest.raises(record.RecordError):
            record.summarize([], METRICS)

"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "poisson" in out


class TestExperiment:
    def test_runs_quick_experiment(self, capsys):
        assert main(["experiment", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Appendix A" in out

    def test_lowercase_id(self, capsys):
        assert main(["experiment", "e14"]) == 0

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            main(["experiment", "E99"])


class TestSolve:
    def test_pipeline_solve(self, capsys):
        assert main([
            "solve", "--workload", "poisson", "--n", "8",
            "--delta", "2", "--seed", "1", "--horizon", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "total_cost" in out
        assert "[2 | 1 | D_l | 1]" in out

    def test_direct_policy_solve(self, capsys):
        assert main([
            "solve", "--workload", "rate-limited", "--policy", "dlru-edf",
            "--n", "8", "--delta", "2", "--horizon", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "completion_rate" in out

    def test_baseline_policy_solve(self, capsys):
        assert main([
            "solve", "--workload", "uniform", "--policy", "greedy",
            "--n", "4", "--delta", "2", "--horizon", "16",
        ]) == 0

    def test_engine_selects_the_policy_path_too(
        self, capsys, monkeypatch, tmp_path
    ):
        # `--engine reference` must run the reference policy path, not
        # only the reference simulator: in `repro solve` and in the ratio
        # dashboard behind `repro opt`.
        from repro import cli
        from repro.opt import ratios

        seen = set()

        def spy(simulate):
            def run(instance, policy, **kwargs):
                result = simulate(instance, policy, **kwargs)
                seen.add((kwargs["engine"], policy.incremental))
                return result
            return run

        monkeypatch.setattr(cli, "simulate", spy(cli.simulate))
        monkeypatch.setattr(ratios, "simulate", spy(ratios.simulate))
        for engine in ("reference", "incremental"):
            assert main([
                "solve", "--workload", "uniform", "--policy", "dlru-edf",
                "--n", "4", "--delta", "2", "--horizon", "16",
                "--engine", engine,
            ]) == 0
            assert main([
                "opt", "--no-cache", "--engine", engine,
                "--out", str(tmp_path / "opt.json"),
            ]) == 0
        assert seen == {("reference", False), ("incremental", True)}


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        from repro import __version__

        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_version_matches_package_metadata(self):
        # pyproject.toml pins the same string; drift would ship a CLI that
        # reports a different version than pip shows.
        import re
        from pathlib import Path

        from repro import __version__

        pyproject = (
            Path(__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        match = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
        assert match is not None
        assert match.group(1) == __version__


class TestArgumentValidation:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_workload(self):
        with pytest.raises(SystemExit):
            main(["solve", "--workload", "nonsense"])


class TestTraceCommands:
    def test_trace_save_and_solve(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        assert main([
            "trace", "--workload", "uniform", "--delta", "2",
            "--horizon", "16", "--out", str(path),
        ]) == 0
        assert path.exists()
        assert main(["solve", "--trace", str(path), "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "total_cost" in out

    def test_trace_reload_is_deterministic(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        main(["trace", "--workload", "bursty", "--delta", "3",
              "--horizon", "64", "--seed", "5", "--out", str(path)])
        capsys.readouterr()
        main(["solve", "--trace", str(path), "--n", "8"])
        first = capsys.readouterr().out
        main(["solve", "--trace", str(path), "--n", "8"])
        second = capsys.readouterr().out
        assert first == second

    def test_timeline_flag(self, capsys):
        assert main([
            "solve", "--workload", "uniform", "--horizon", "12",
            "--n", "4", "--policy", "greedy", "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "utilization" in out


class TestVerifyCommand:
    def test_verify_clean_trace(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        main(["trace", "--workload", "rate-limited", "--delta", "2",
              "--horizon", "32", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(path), "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "Theorem 1" in out

    def test_verify_routes_general_traces_to_theorem_3(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        main(["trace", "--workload", "poisson", "--delta", "2",
              "--horizon", "32", "--out", str(path)])
        capsys.readouterr()
        main(["verify", "--trace", str(path), "--n", "8"])
        assert "Theorem 3" in capsys.readouterr().out


class TestAllCommand:
    @staticmethod
    def _isolate(monkeypatch, tmp_path):
        """Point the runner's cache away from the user's real store."""
        from repro.experiments.adversarial import run_e1, run_e4

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS", {"E1": run_e1, "E4": run_e4}
        )

    def test_all_runs_registry_subset(self, capsys, monkeypatch, tmp_path):
        self._isolate(monkeypatch, tmp_path)
        assert main(["all", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "## E1" in out
        assert "## E4" in out
        assert "2/2 experiments passed" in out

    def test_all_parallel_output_matches_serial(self, capsys, monkeypatch, tmp_path):
        self._isolate(monkeypatch, tmp_path)
        assert main(["all", "--scale", "quick", "--jobs", "1", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["all", "--scale", "quick", "--jobs", "2", "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_all_stats_reports_cache_hits(self, capsys, monkeypatch, tmp_path):
        self._isolate(monkeypatch, tmp_path)
        assert main(["all", "--scale", "quick"]) == 0
        capsys.readouterr()
        stats_out = tmp_path / "stats" / "runner_stats.json"
        assert main(["all", "--scale", "quick", "--stats",
                     "--stats-out", str(stats_out)]) == 0
        out = capsys.readouterr().out
        assert "cache hits 2/2" in out
        assert "runner stats" in out
        assert str(stats_out) in out

    def test_all_stats_payload_lands_at_stats_out(
        self, capsys, monkeypatch, tmp_path
    ):
        import json

        self._isolate(monkeypatch, tmp_path)
        stats_out = tmp_path / "out" / "stats.json"
        assert main(["all", "--scale", "quick", "--no-cache", "--stats",
                     "--stats-out", str(stats_out)]) == 0
        capsys.readouterr()
        payload = json.loads(stats_out.read_text())
        assert {r["experiment_id"] for r in payload["records"]} == {"E1", "E4"}
        assert payload["telemetry"]["counters"]["repro_rounds_total"][""] > 0

    def test_all_no_cache_leaves_store_empty(self, capsys, monkeypatch, tmp_path):
        self._isolate(monkeypatch, tmp_path)
        assert main(["all", "--scale", "quick", "--no-cache"]) == 0
        assert not list((tmp_path / "cache").glob("*/*.pkl"))


def _run_with_failing_check(scale: str = "quick"):
    """A registry stand-in whose result fails one check."""
    from repro.experiments.adversarial import run_e1

    result = run_e1(scale)
    result.check("deliberately failing check (test stub)", False)
    return result


class TestAllExitCodes:
    """The ``all`` exit-code contract CI leans on: 0 = everything passed,
    1 = a failed experiment check.  An experiment that raises propagates
    (see ``test_runner_recovery``)."""

    @staticmethod
    def _isolate(monkeypatch, tmp_path):
        from repro.experiments.adversarial import run_e1, run_e4

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS", {"E1": run_e1, "E4": run_e4}
        )

    def test_clean_run_exits_zero(self, capsys, monkeypatch, tmp_path):
        self._isolate(monkeypatch, tmp_path)
        assert main(["all", "--scale", "quick"]) == 0

    def test_failed_check_exits_one(self, capsys, monkeypatch, tmp_path):
        self._isolate(monkeypatch, tmp_path)
        import repro.experiments.registry as registry

        monkeypatch.setitem(registry.EXPERIMENTS, "E1", _run_with_failing_check)
        assert main(["all", "--scale", "quick", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "1/2 experiments passed" in out
        assert "[FAIL]" in out


class TestSweepCommand:
    def test_sweep_pivot_table(self, capsys):
        assert main([
            "sweep", "--workload", "poisson", "--deltas", "2,4",
            "--ns", "8", "--seeds", "0,1", "--horizon", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean total_cost" in out
        assert "n=8" in out
        assert "4 cells" in out

    def test_sweep_parallel_matches_serial(self, capsys):
        argv = ["sweep", "--workload", "uniform", "--deltas", "2",
                "--ns", "4,8", "--seeds", "0,1", "--horizon", "32"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial.replace("jobs=1", "") == parallel.replace("jobs=2", "")

    def test_sweep_jobs_zero_means_one_per_core(self, capsys, monkeypatch):
        import os

        import repro.experiments.sweeps as sweeps

        pools = []
        real_pool_map = sweeps.pool_map

        def spy(fn, tasks, jobs):
            pools.append(jobs)
            return real_pool_map(fn, tasks, jobs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweeps, "pool_map", spy)
        argv = ["sweep", "--workload", "uniform", "--deltas", "2",
                "--ns", "4,8", "--seeds", "0", "--horizon", "16"]
        assert main(argv + ["--jobs", "0"]) == 0
        assert pools == [2]
        assert "2 cells (jobs=2)" in capsys.readouterr().out

    def test_sweep_rejects_bad_value(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--deltas", "2", "--ns", "4", "--seeds", "0",
                  "--horizon", "16", "--value", "nonsense"])

    def test_sweep_rejects_bad_int_list(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--deltas", "two", "--ns", "4", "--seeds", "0"])


class TestMetricsCommand:
    ARGS = ["metrics", "--workload", "uniform", "--n", "4", "--delta", "2",
            "--horizon", "24", "--policy", "greedy"]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "repro_rounds_total" in out
        assert "histogram" in out

    def test_prom_output(self, capsys):
        assert main(self.ARGS + ["--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_rounds_total counter" in out
        assert "# TYPE repro_phase_seconds histogram" in out
        assert 'repro_phase_seconds_bucket{phase="drop",le="+Inf"}' in out

    def test_writes_trace_alongside(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--telemetry", str(trace)]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[-1]["name"] == "summary"

    def test_renders_saved_runner_stats(self, tmp_path, capsys):
        import json

        from repro.experiments.runner import run_parallel

        report = run_parallel(["E1"], jobs=1, collect_telemetry=True,
                              cache_dir=tmp_path / "cache", use_cache=False)
        path = report.write_stats(tmp_path / "stats.json")
        assert main(["metrics", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_runner_tasks_total" in out

    def test_renders_raw_snapshot(self, tmp_path, capsys):
        import json

        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        reg.count("repro_drops_total", 5)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(reg.snapshot()))
        assert main(["metrics", "--input", str(path), "--format", "prom"]) == 0
        assert "repro_drops_total 5" in capsys.readouterr().out

    def test_rejects_non_snapshot_input(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a snapshot"}')
        with pytest.raises(SystemExit):
            main(["metrics", "--input", str(path)])


class TestTelemetryFlags:
    def test_solve_telemetry_writes_trace_without_changing_solution(
        self, tmp_path, capsys
    ):
        argv = ["solve", "--workload", "uniform", "--policy", "dlru-edf",
                "--n", "4", "--delta", "2", "--horizon", "24"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "run.jsonl"
        assert main(argv + ["--telemetry", str(trace)]) == 0
        instrumented = capsys.readouterr().out
        assert trace.exists()
        assert instrumented.replace(
            f"wrote telemetry trace to {trace}\n", ""
        ) == plain

    def test_trace_telemetry_runs_recommended_solver(self, tmp_path, capsys):
        import json

        out_trace = tmp_path / "w.json"
        run_trace = tmp_path / "run.jsonl"
        assert main(["trace", "--workload", "rate-limited", "--delta", "2",
                     "--horizon", "32", "--out", str(out_trace),
                     "--telemetry", str(run_trace)]) == 0
        out = capsys.readouterr().out
        assert "total_cost=" in out
        records = [json.loads(l) for l in run_trace.read_text().splitlines()]
        assert records[0]["schema"] == "repro-trace-v2"
        assert any(r.get("name") == "round" for r in records)

    def test_pipeline_trace_carries_the_printed_cost(self, tmp_path, capsys):
        # The inner run's summary is charged before the pull-back merges
        # sibling recolorings (497 here); the pullback span under the same
        # run root carries the cost that solve prints.
        import re

        from repro.telemetry import read_spans

        trace = tmp_path / "t.jsonl"
        assert main(["solve", "--workload", "bursty", "--horizon", "128",
                     "--telemetry", str(trace)]) == 0
        out = capsys.readouterr().out
        printed = int(re.search(r"total_cost: (\d+)", out).group(1))
        assert printed == 489
        _, spans = read_spans(trace)
        (pullback,) = [s for s in spans if s["name"] == "pullback"]
        assert pullback["parent"] == f"{pullback['trace']}/run"
        assert pullback["attrs"]["total_cost"] == printed
        assert pullback["attrs"]["reconfig_count"] == 90
        assert not any("wall_ms" in s for s in spans)

    def test_solve_telemetry_is_one_deterministic_span_tree(
        self, tmp_path, capsys
    ):
        from repro.cli import WORKLOADS
        from repro.core.simulator import simulate
        from repro.policies import make_policy
        from repro.telemetry import read_spans

        argv = ["solve", "--workload", "datacenter", "--horizon", "256",
                "--policy", "dlru-edf", "--telemetry"]
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(argv + [str(first)]) == 0
        assert main(argv + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        header, spans = read_spans(first)
        assert header == {"kind": "header", "schema": "repro-trace-v2"}
        instance = WORKLOADS["datacenter"](delta=4, seed=0, horizon=256)
        rounds = instance.horizon  # the workload's last deadline, past 256
        assert [s["name"] for s in spans] == (
            ["run"] + ["round"] * rounds + ["summary"]
        )
        assert {s["trace"] for s in spans} == {"t000001"}
        run = simulate(instance, make_policy("dlru-edf", 4), n=16,
                       record_events=False)
        assert spans[-1]["attrs"] == run.ledger.summary()
        capsys.readouterr()
        assert main(["spans", str(first)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace t000001\n└─ run  ")
        assert out.count("trace ") == 1
        assert out.count("round=") == rounds


class TestEveryPolicyChoice:
    import pytest as _pytest

    @_pytest.mark.parametrize("policy", [
        "dlru", "edf", "dlru-edf", "static", "classic-lru", "greedy",
    ])
    def test_solve_with_each_policy(self, policy, capsys):
        assert main([
            "solve", "--workload", "rate-limited", "--policy", policy,
            "--n", "8", "--delta", "2", "--horizon", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "total_cost" in out

"""CLI smoke tests: `repro serve` as a real subprocess, `repro loadgen` against it.

This is the same drill the CI serve-smoke leg runs: start the server
with a port file, wait for it to listen, replay a workload with digest
verification, then SIGTERM and expect a clean zero exit.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]


def serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def wait_for(path: Path, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().strip():
            return
        time.sleep(0.05)
    raise AssertionError(f"{path} did not appear within {timeout}s")


@pytest.fixture
def server(tmp_path):
    port_file = tmp_path / "ports.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port-file", str(port_file),
            "--journal", str(tmp_path / "journal.jsonl"),
            "--shards", "2", "--n", "16", "--delta", "4",
            "--quiet",
        ],
        env=serve_env(),
        cwd=REPO,
    )
    try:
        wait_for(port_file)
        yield json.loads(port_file.read_text())
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0


class TestServeSmoke:
    def test_loadgen_cli_verifies_digests(self, server, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main([
            "loadgen",
            "--port", str(server["port"]),
            "--workload", "poisson", "--delta", "4", "--seed", "2",
            "--horizon", "96",
            "--json", str(report_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MATCH" in out and "MISMATCH" not in out
        report = json.loads(report_path.read_text())
        assert report["digests_match"] is True
        # The generator pads the horizon past the last deadline, so the
        # replay covers at least the requested arrival rounds.
        assert report["rounds"] >= 96
        assert report["params"]["shards"] == 2
        assert report["jobs_per_second"] > 0
        assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"]
        assert not [key for key in report if key.startswith("tick_latency_")]

    def test_sigterm_hangs_up_idle_clients(self, tmp_path):
        """A client parked on the socket gets EOF when the server is
        terminated — stop() closes every open connection, so shutdown
        never waits on idle clients."""
        import socket

        port_file = tmp_path / "ports.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port-file", str(port_file),
                "--n", "8", "--delta", "1", "--policy", "edf",
                "--quiet",
            ],
            env=serve_env(),
            cwd=REPO,
        )
        try:
            wait_for(port_file)
            ports = json.loads(port_file.read_text())
            with socket.create_connection(
                ("127.0.0.1", ports["port"]), timeout=10
            ) as sock:
                sock.sendall(b'{"type": "hello"}\n')
                assert b"welcome" in sock.recv(65536)
                proc.send_signal(signal.SIGTERM)
                sock.settimeout(15)
                # EOF, not a hang: recv drains any close-race bytes then
                # returns b"".
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=20)

    def test_healthz_over_http(self, server):
        import urllib.request

        with urllib.request.urlopen(
            f"http://127.0.0.1:{server['metrics_port']}/healthz", timeout=10
        ) as response:
            health = json.loads(response.read())
        assert health["status"] == "ok"
        assert health["shards"] == 2


class TestLoadgenErrors:
    def test_needs_port_or_port_file(self):
        with pytest.raises(SystemExit, match="--port"):
            main(["loadgen"])

    def test_refuses_wrong_delta(self, server):
        with pytest.raises(SystemExit, match="Delta"):
            main([
                "loadgen", "--port", str(server["port"]),
                "--workload", "poisson", "--delta", "2", "--horizon", "32",
            ])


class TestObservabilityCli:
    @pytest.fixture
    def workers_server(self, tmp_path):
        """A --workers server with spans on, driven by one loadgen pass."""
        port_file = tmp_path / "ports.json"
        spans_file = tmp_path / "spans.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port-file", str(port_file),
                "--journal", str(tmp_path / "journal.jsonl"),
                "--spans", str(spans_file),
                "--workers", "--shards", "2", "--n", "16", "--delta", "4",
                "--quiet",
            ],
            env=serve_env(),
            cwd=REPO,
        )
        try:
            wait_for(port_file)
            ports = json.loads(port_file.read_text())
            rc = main([
                "loadgen", "--port", str(ports["port"]),
                "--workload", "poisson", "--delta", "4", "--horizon", "48",
            ])
            assert rc == 0
            yield {**ports, "spans": spans_file}
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0

    def test_metrics_url_scrapes_the_live_server(self, workers_server, capsys):
        url = f"http://127.0.0.1:{workers_server['metrics_port']}/metrics"
        rc = main(["metrics", "--url", url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro_serve_ticks_total" in out
        # worker series made it through the scrape-parse-render loop
        assert 'shard="0",worker="0"' in out
        assert 'shard="1",worker="1"' in out

    def test_metrics_url_prom_format_round_trips(self, workers_server, capsys):
        from repro.telemetry import parse_prometheus

        url = f"http://127.0.0.1:{workers_server['metrics_port']}/metrics"
        rc = main(["metrics", "--url", url, "--format", "prom"])
        out = capsys.readouterr().out
        assert rc == 0
        snap = parse_prometheus(out)
        assert "repro_rounds_total" in snap["counters"]

    def test_top_renders_per_shard_table(self, workers_server, capsys):
        url = f"http://127.0.0.1:{workers_server['metrics_port']}/metrics"
        rc = main(["top", "--url", url, "--count", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        header, shard0, shard1 = (
            line for line in out.splitlines()
            if line.startswith(("| shard", "|     0", "|     1"))
        )
        assert "respawns" in header and "tick p95 ms" in header
        assert "server: ticks" in out

    def test_spans_cli_renders_complete_trees(self, workers_server, capsys):
        rc = main(["spans", str(workers_server["spans"]), "--limit", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace t00" in out
        for name in ("submit", "admit", "wal.intent", "commit"):
            assert name in out

    def test_spans_json_mode_strips_wall_ms(self, workers_server, capsys):
        rc = main([
            "spans", str(workers_server["spans"]), "--json",
            "--trace", "t000001",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        assert all(r["trace"] == "t000001" for r in records)
        assert all("wall_ms" not in r for r in records)

    def test_metrics_url_and_input_are_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["metrics", "--url", "http://x/metrics", "--input", "f.json"])

    def test_top_needs_url_or_port_file(self):
        with pytest.raises(SystemExit, match="--url or --port-file"):
            main(["top"])

    def test_spans_rejects_a_non_span_file(self, tmp_path):
        bogus = tmp_path / "not-spans.jsonl"
        bogus.write_text('{"kind": "other"}\n')
        with pytest.raises(SystemExit, match="repro-trace-v2"):
            main(["spans", str(bogus)])


class TestServeConfigErrors:
    def test_bad_shard_split_is_a_clean_error(self):
        # 17 resources over 3 shards gives dlru-edf a capacity it rejects;
        # the CLI must turn that into a SystemExit, not a traceback.
        with pytest.raises(SystemExit, match="shard 0 got capacity 6"):
            main([
                "serve", "--n", "17", "--shards", "3",
                "--policy", "dlru-edf", "--quiet",
            ])

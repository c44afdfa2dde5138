"""Chaos serve: kill a live shard worker mid-run, demand identical digests.

The acceptance drill for multi-process serve: a real ``repro serve
--workers`` subprocess with a fault plan that SIGKILLs shard 1 at its
first tick, driven by a real ``repro loadgen`` replay with digest
verification against the offline ``Simulator.run``.  If journal-replay
failover loses, duplicates, or reorders so much as one job, the digest
comparison fails — and a control run without the fault plan pins that
the chaos run's digests are the *same* digests, not merely
self-consistent ones.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

KILL_PLAN = json.dumps({
    "seed": 0,
    "faults": [{"task": "serve/shard1/tick/*", "kind": "kill"}],
})


def serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_text().strip():
            return
        time.sleep(0.05)
    raise AssertionError(f"{path} did not appear within {timeout}s")


def run_serve_and_loadgen(tmp_path, tag, fault_plan=None):
    """One serve --workers subprocess + one loadgen replay against it."""
    port_file = tmp_path / f"ports-{tag}.json"
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port-file", str(port_file),
        "--journal", str(tmp_path / f"journal-{tag}.jsonl"),
        "--workers", "--worker-timeout", "10",
        "--shards", "2", "--n", "16", "--delta", "4",
        "--quiet",
    ]
    if fault_plan is not None:
        cmd += ["--inject-faults", fault_plan]
    proc = subprocess.Popen(cmd, env=serve_env(), cwd=REPO)
    try:
        wait_for(port_file)
        ports = json.loads(port_file.read_text())
        report_path = tmp_path / f"report-{tag}.json"
        loadgen = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "loadgen",
                "--port", str(ports["port"]),
                "--workload", "poisson", "--delta", "4", "--seed", "7",
                "--horizon", "64",
                "--json", str(report_path),
            ],
            env=serve_env(),
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert loadgen.returncode == 0, loadgen.stdout + loadgen.stderr
        metrics = ""
        if ports.get("metrics_port"):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{ports['metrics_port']}/metrics",
                timeout=10,
            ) as response:
                metrics = response.read().decode()
        return json.loads(report_path.read_text()), metrics
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


class TestChaosServe:
    def test_killed_shard_resumes_digest_identical(self, tmp_path):
        chaos, metrics = run_serve_and_loadgen(
            tmp_path, "chaos", fault_plan=KILL_PLAN
        )
        control, _ = run_serve_and_loadgen(tmp_path, "control")

        # The chaos run verified against the offline simulator...
        assert chaos["digests_match"] is True
        # ...and produced the same per-shard digests as the unkilled run.
        assert control["digests_match"] is True
        assert chaos["server_digests"] == control["server_digests"]
        assert chaos["jobs"] == control["jobs"]

        # The respawn really happened (shard 1, exactly the planned one).
        assert 'repro_serve_worker_respawns_total{shard="1"} 1' in metrics
        assert 'repro_serve_worker_respawns_total{shard="0"}' not in metrics

"""Chaos serve: kill a live shard worker mid-run, demand identical digests.

The acceptance drill for multi-process serve: a real ``repro serve
--workers`` subprocess whose shard-1 worker is SIGKILLed, at the pid
``/healthz`` reports, once a fixed number of rounds has been ticked.
The replay is ``repro loadgen``'s, with digest verification against the
offline ``Simulator.run``.  If journal-replay failover loses,
duplicates, or reorders so much as one job, the digest comparison fails
— and an unkilled control run of the same instance pins that the chaos
run's digests are the *same* digests, not merely self-consistent ones.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.core.request import Instance
from repro.serve import run_loadgen
from repro.workloads import poisson_workload

REPO = Path(__file__).resolve().parents[2]

#: rounds ticked before the shard-1 worker is killed.
KILL_AT = 16


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


def http_get(ports: dict, path: str) -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{ports['metrics_port']}{path}", timeout=10
    ) as response:
        return response.read().decode()


def workers(ports: dict) -> list[dict]:
    return json.loads(http_get(ports, "/healthz"))["workers"]


class KillAtRound:
    """A request sequence that runs ``kill`` once, when round ``at`` is
    first requested: loadgen asks for a round's jobs right before it
    submits them, so the kill lands after round ``at - 1`` was ticked."""

    def __init__(self, sequence, at: int, kill):
        self.sequence = sequence
        self.at = at
        self.kill = kill

    @property
    def horizon(self) -> int:
        return self.sequence.horizon

    def request(self, rnd: int):
        if rnd == self.at and self.kill is not None:
            kill, self.kill = self.kill, None
            kill()
        return self.sequence.request(rnd)


def kill_shard_1(ports: dict) -> None:
    """SIGKILL shard 1's worker and wait until /healthz reports it dead."""
    os.kill(workers(ports)[1]["pid"], signal.SIGKILL)
    deadline = time.monotonic() + 10
    while workers(ports)[1]["alive"]:
        assert time.monotonic() < deadline, "killed worker still alive"
        time.sleep(0.01)


def run_serve_and_loadgen(tmp_path, tag, instance, kill=False):
    """One serve --workers subprocess + one loadgen replay against it;
    returns the report, the /metrics text and the /healthz workers."""
    port_file = tmp_path / f"ports-{tag}.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port-file", str(port_file),
            "--journal", str(tmp_path / f"journal-{tag}.jsonl"),
            "--workers", "--worker-timeout", "10",
            "--shards", "2", "--n", "16", "--delta", "4",
            "--quiet",
        ],
        env=serve_env(),
        cwd=REPO,
    )
    try:
        wait_for(port_file)
        ports = json.loads(port_file.read_text())
        if kill:
            instance = Instance(
                KillAtRound(
                    instance.sequence, KILL_AT, lambda: kill_shard_1(ports)
                ),
                instance.delta,
                name=instance.name,
            )
        report = run_loadgen("127.0.0.1", ports["port"], instance)
        return report, http_get(ports, "/metrics"), workers(ports)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


class TestChaosServe:
    def test_killed_shard_resumes_digest_identical(self, tmp_path):
        # One instance for both runs: job uids come from a process-wide
        # counter, so a second generation would mint other uids.
        instance = poisson_workload(delta=4, seed=7, horizon=64)
        chaos, metrics, chaos_workers = run_serve_and_loadgen(
            tmp_path, "chaos", instance, kill=True
        )
        control, _, control_workers = run_serve_and_loadgen(
            tmp_path, "control", instance
        )

        # The chaos run verified against the offline simulator...
        assert chaos.digests_match is True
        # ...and produced the same per-shard digests as the unkilled run.
        assert control.digests_match is True
        assert chaos.server_digests == control.server_digests
        assert chaos.jobs == control.jobs
        assert chaos.rounds > KILL_AT

        # The respawn really happened (shard 1, exactly the killed one).
        assert [w["respawns"] for w in chaos_workers] == [0, 1]
        assert [w["respawns"] for w in control_workers] == [0, 0]
        assert 'repro_serve_worker_respawns_total{shard="1"} 1' in metrics
        assert 'repro_serve_worker_respawns_total{shard="0"}' not in metrics

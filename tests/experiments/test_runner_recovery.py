"""Recovery without a supervisor: the result cache is the checkpoint.

Each worker caches its cell as soon as the cell is done, and a failing
cell propagates only after the pool drains.  So a ``repro all`` process
group that is SIGKILLed midway, or a run with a broken cell, leaves every
finished cell on disk, and a plain rerun recomputes only the rest.

The runs are real ``repro all --jobs 2`` subprocesses over a small
registry subset, driven by a generated script that patches one cell: it
either blocks on a gate file (so the kill lands while that cell is
deterministically unfinished) or raises.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.cache import ResultCache, cache_key

REPO = Path(__file__).resolve().parents[2]

#: fast deterministic experiments; the first one is the patched cell, so
#: every other cell sits behind it in request order.
IDS = ["E1", "E2", "E4", "E14", "A2"]
PATCHED = IDS[0]

SCRIPT = '''\
import sys
import time
from pathlib import Path

import repro.cli
from repro.experiments import registry

GATE = Path({gate!r})
original = registry.EXPERIMENTS[{patched!r}]


def patched(scale):
    if {mode!r} == "raise":
        raise RuntimeError("{patched} broke on purpose")
    while not GATE.exists():
        time.sleep(0.01)
    return original(scale)


registry.EXPERIMENTS[{patched!r}] = patched
repro.cli.EXPERIMENTS = {{eid: registry.EXPERIMENTS[eid] for eid in {ids!r}}}

if __name__ == "__main__":
    sys.exit(repro.cli.main(sys.argv[1:]))
'''


def write_script(tmp_path: Path, mode: str) -> Path:
    script = tmp_path / f"script_{mode}.py"
    script.write_text(SCRIPT.format(
        gate=str(tmp_path / "gate"), patched=PATCHED, mode=mode, ids=IDS,
    ))
    return script


def script_env(cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def cached_ids(cache: Path) -> set[str]:
    store = ResultCache(cache)
    return {eid for eid in IDS if cache_key(eid, "quick") in store}


def run_all(script: Path, cache: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "all", "--scale", "quick", *args],
        env=script_env(cache),
        cwd=script.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )


def digests(stats_path: Path) -> dict[str, str]:
    records = json.loads(stats_path.read_text())["records"]
    return {r["experiment_id"]: r["digest"] for r in records}


class TestCrashRerun:
    def test_sigkilled_run_reruns_only_the_missing_cells(self, tmp_path):
        cache = tmp_path / "cache"
        script = write_script(tmp_path, "block")
        proc = subprocess.Popen(
            [sys.executable, str(script), "all", "--scale", "quick",
             "--jobs", "2"],
            env=script_env(cache),
            cwd=tmp_path,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not cached_ids(cache):
                assert proc.poll() is None, "the gated run ended on its own"
                assert time.monotonic() < deadline, "no cell was ever cached"
                time.sleep(0.02)
        finally:
            # The whole process group: the CLI and both pool workers.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        time.sleep(0.1)  # let a rename already inside the kernel land
        on_disk = cached_ids(cache)
        assert on_disk and PATCHED not in on_disk

        (tmp_path / "gate").touch()
        rerun = run_all(script, cache, "--jobs", "2", "--stats",
                        "--stats-out", str(tmp_path / "rerun.json"))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        payload = json.loads((tmp_path / "rerun.json").read_text())
        hits = {r["experiment_id"] for r in payload["records"]
                if r["cache"] == "hit"}
        assert hits == on_disk
        assert payload["cache_hits"] == len(on_disk)

        reference = run_all(script, tmp_path / "unused", "--jobs", "1",
                            "--no-cache", "--stats",
                            "--stats-out", str(tmp_path / "reference.json"))
        assert reference.returncode == 0, reference.stdout + reference.stderr
        assert digests(tmp_path / "rerun.json") == digests(
            tmp_path / "reference.json"
        )
        assert list(digests(tmp_path / "rerun.json")) == IDS


class TestFailingCell:
    def test_raise_propagates_after_the_pool_drains(self, tmp_path):
        cache = tmp_path / "cache"
        run = run_all(write_script(tmp_path, "raise"), cache, "--jobs", "2")
        assert run.returncode != 0
        assert f"{PATCHED} broke on purpose" in run.stderr
        # The broken cell is first in request order, yet every other cell
        # ran to completion and reached the cache before the raise.
        assert cached_ids(cache) == set(IDS) - {PATCHED}

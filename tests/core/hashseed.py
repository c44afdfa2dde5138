"""Cross-process determinism helpers: string colors under several hash seeds.

Results must depend only on the instance and the policy — never on the
process's ``PYTHONHASHSEED``.  Integer colors hash to themselves and cannot
catch a leak, so these helpers relabel a workload with string colors and
digest it in fresh subprocesses, one per seed in :data:`HASHSEED_SEEDS`.
The children import this module, so they get both ``src`` and the repo
root on ``PYTHONPATH``.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from repro.core.digest import result_digest
from repro.core.engine import ENGINES, make_simulator
from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.simulator import Simulator
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.telemetry import TelemetryRecorder
from repro.workloads.generators import rate_limited_workload

#: PYTHONHASHSEED values for the cross-process legs (≥3 distinct seeds,
#: none of them 0, so hash-order bugs cannot hide behind a fixed seed).
HASHSEED_SEEDS = (1, 7, 1234)

ROOT = Path(__file__).resolve().parents[2]


def string_relabel(instance: Instance) -> Instance:
    """The same instance with string colors (``c0007``-style).

    String colors are where PYTHONHASHSEED leaks show: if any engine path
    iterated a raw set of colors, the desired-multiset order — and with it
    location assignment, events, and schedules — would differ between hash
    seeds.  Integer keys hash to themselves, so only strings catch it.
    """
    jobs = [
        Job(
            color=f"c{job.color:04d}",
            arrival=job.arrival,
            delay_bound=job.delay_bound,
        )
        for job in instance.sequence.jobs()
    ]
    return Instance(
        RequestSequence(jobs), instance.delta, name=f"{instance.name}-str"
    )


def hashseed_digests() -> dict[str, str]:
    """Digests of one string-colored run on each engine (current process).

    An extra leg re-runs the incremental engine with a live telemetry
    recorder (metrics plus a discarded JSONL trace): the
    never-affects-digests contract must hold under every hash seed, so the
    flat-digest check covers telemetry-on alongside both plain engines.
    """
    instance = string_relabel(
        rate_limited_workload(num_colors=16, horizon=256, delta=4, seed=0)
    )
    out = {}
    for engine in ENGINES:
        policy = DeltaLRUEDFPolicy(instance.delta)
        result = make_simulator(instance, policy, 16, engine=engine).run()
        out[engine] = result_digest(result)
    recorder = TelemetryRecorder(trace=io.StringIO())
    result = Simulator(
        instance,
        DeltaLRUEDFPolicy(instance.delta),
        n=16,
        telemetry=recorder,
    ).run()
    out["incremental_telemetry"] = result_digest(result)
    return out


def run_child(code: str, seed: int):
    """Run ``code`` in a fresh interpreter under ``PYTHONHASHSEED=seed``.

    The child must print one JSON document; it is returned parsed.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    paths = [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


_CHILD_CODE = (
    "import json; from tests.core.hashseed import hashseed_digests; "
    "print(json.dumps(hashseed_digests()))"
)


def check_hashseed_determinism(
    seeds: Sequence[int] = HASHSEED_SEEDS,
) -> dict:
    """Run the string-colored digest in one subprocess per hash seed.

    Returns ``{"seeds": [...], "digests": {...}, "identical": bool}`` where
    ``identical`` means every seed and every leg produced one digest.
    """
    digests = {str(seed): run_child(_CHILD_CODE, seed) for seed in seeds}
    flat = {d for per_seed in digests.values() for d in per_seed.values()}
    return {
        "seeds": list(seeds),
        "digests": digests,
        "identical": len(flat) == 1,
    }

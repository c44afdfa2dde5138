"""Differential-testing oracle through the registry: reference × incremental.

Every workload here is built ONCE and run through both engines (job
uids come from a process-global counter, so the engines must see the same
``Instance``), and every component of the run — ledger, schedule, event
log, executed/dropped uid sets — must match byte for byte.  This is the
contract that lets the perf harness claim speedups on identical
behaviour.  It overlaps the pairwise suite in
``tests/policies/test_incremental_equivalence.py`` on purpose: this one
goes through :func:`repro.core.engine.make_simulator`, the constructor
the CLI, the perf harness and the serve layer use.

The cross-process leg re-runs a string-colored comparison in a fresh
subprocess per ``PYTHONHASHSEED`` in {1, 7, 1234}: string colors hash
differently under every seed, so any raw-set iteration order leaking
into a schedule diverges here even if the in-process legs agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.digest import result_digest
from repro.core.engine import ENGINES, engine_of, make_simulator, resolve_engine
from repro.core.simulator import simulate
from repro.experiments.perf import _string_relabel
from repro.policies import make_policy
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.edf import SeqEDFPolicy
from repro.workloads.generators import (
    bursty_workload,
    rate_limited_workload,
)
from repro.workloads.scenarios import (
    background_shortterm_instance,
    datacenter_workload,
    router_workload,
)


def _two_way(instance, make_pol, n, speed=1):
    """Run ``instance`` on both engines; assert full bit-identity."""
    runs = {}
    for engine in ENGINES:
        sim = make_simulator(
            instance,
            make_pol(incremental=engine != "reference"),
            n,
            engine=engine,
            speed=speed,
        )
        assert engine_of(sim) == engine
        runs[engine] = sim.run()
    ref, inc = runs["reference"], runs["incremental"]
    assert inc.ledger.summary() == ref.ledger.summary()
    assert inc.schedule.to_json() == ref.schedule.to_json()
    assert [repr(e) for e in inc.events] == [repr(e) for e in ref.events]
    assert sorted(inc.executed_uids) == sorted(ref.executed_uids)
    assert sorted(inc.dropped_uids) == sorted(ref.dropped_uids)
    digests = {result_digest(run) for run in runs.values()}
    assert len(digests) == 1
    return digests.pop()


def _policy(name, delta):
    return lambda incremental: make_policy(name, delta, incremental=incremental)


class TestRegistry:
    def test_engines_tuple(self):
        assert ENGINES == ("reference", "incremental")

    def test_resolve_engine_keeps_registry_names(self):
        for name in ENGINES:
            assert resolve_engine(name) == name

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("vectorised")

    def test_make_simulator_rejects_unknown(self):
        inst = rate_limited_workload(num_colors=4, horizon=32, delta=4, seed=0)
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(inst, make_policy("edf", 4), 8, engine="fast")

    def test_simulate_engine_kwarg(self):
        inst = rate_limited_workload(num_colors=6, horizon=96, delta=4, seed=3)
        digests = {
            result_digest(
                simulate(
                    inst,
                    make_policy("dlru-edf", 4, incremental=e != "reference"),
                    n=8,
                    engine=e,
                )
            )
            for e in ENGINES
        }
        assert len(digests) == 1


class TestEseriesWorkloads:
    """The scenario workloads behind E10/E12 and the lemma experiments."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_datacenter(self, seed):
        inst = datacenter_workload(
            num_services=8, horizon=256, delta=8, seed=seed
        )
        _two_way(inst, _policy("dlru-edf", 8), n=16)

    def test_router(self):
        inst = router_workload(num_classes=6, horizon=256, delta=4, seed=1)
        _two_way(inst, _policy("dlru-edf", 4), n=8)

    def test_background_shortterm(self):
        # Wildly mixed delay bounds: rotating short bursts (bound 16)
        # over far-deadline background work (bound 256).
        inst = background_shortterm_instance(
            delta=4, num_short=8, long_bound=256, quiet_after=128,
            background_jobs=128,
        )
        _two_way(inst, _policy("dlru-edf", 4), n=8)

    @pytest.mark.parametrize("policy", ["dlru", "edf", "static", "classic-lru",
                                        "greedy"])
    def test_all_registered_policies(self, policy):
        inst = datacenter_workload(num_services=6, horizon=192, delta=8, seed=2)
        _two_way(inst, _policy(policy, 8), n=8)


class TestScalingWorkloads:
    """Scaled-down points of the BENCH_perf scaling series."""

    def test_scaling_horizon(self):
        inst = rate_limited_workload(num_colors=8, horizon=512, delta=4, seed=0)
        _two_way(inst, _policy("dlru-edf", 4), n=16)

    def test_scaling_colors(self):
        inst = rate_limited_workload(num_colors=64, horizon=128, delta=4, seed=0)
        _two_way(inst, _policy("dlru-edf", 4), n=16)

    def test_scaling_resources(self):
        # n far above the live job count: the reference engine scans every
        # location, the incremental engine must agree while touching
        # almost none.
        inst = rate_limited_workload(num_colors=16, horizon=128, delta=4, seed=0)
        _two_way(inst, _policy("dlru-edf", 4), n=256)

    def test_bursty(self):
        inst = bursty_workload(num_colors=10, horizon=192, delta=4, seed=5)
        _two_way(inst, _policy("dlru-edf", 4), n=12)


class TestSpeedAndColors:
    @pytest.mark.parametrize("speed", [1, 2])
    def test_speeds(self, speed):
        inst = rate_limited_workload(num_colors=10, horizon=160, delta=4, seed=2)
        _two_way(inst, _policy("dlru-edf", 4), n=8, speed=speed)

    def test_seq_edf_speed2(self):
        inst = rate_limited_workload(num_colors=10, horizon=160, delta=4, seed=4)
        _two_way(
            inst,
            lambda incremental: SeqEDFPolicy(4, incremental=incremental),
            n=8,
            speed=2,
        )

    @pytest.mark.parametrize("speed", [1, 2])
    def test_string_colors(self, speed):
        inst = _string_relabel(
            rate_limited_workload(num_colors=12, horizon=160, delta=4, seed=6)
        )
        _two_way(inst, _policy("dlru-edf", 4), n=8, speed=speed)

    def test_uneven_split(self):
        inst = bursty_workload(num_colors=10, horizon=160, delta=4, seed=1)
        _two_way(
            inst,
            lambda incremental: DeltaLRUEDFPolicy(
                4, lru_fraction=0.35, incremental=incremental
            ),
            n=12,
        )


_CHILD = """
import json, sys
from repro.core.digest import result_digest
from repro.core.engine import ENGINES, make_simulator
from repro.experiments.perf import _string_relabel
from repro.policies import make_policy
from repro.workloads.generators import rate_limited_workload

instance = _string_relabel(
    rate_limited_workload(num_colors=16, horizon=192, delta=4, seed=0)
)
out = {}
for engine in ENGINES:
    policy = make_policy("dlru-edf", 4, incremental=engine != "reference")
    out[engine] = result_digest(
        make_simulator(instance, policy, 16, engine=engine).run()
    )
print(json.dumps(out))
"""


class TestHashseedLegs:
    def test_engines_identical_across_hash_seeds(self):
        # One subprocess per PYTHONHASHSEED; every seed and every engine
        # must produce the one true digest for this workload.
        src_root = str(Path(__file__).resolve().parents[2] / "src")
        digests = {}
        for seed in (1, 7, 1234):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = str(seed)
            env["PYTHONPATH"] = (
                src_root + os.pathsep + env.get("PYTHONPATH", "")
            )
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests[seed] = json.loads(proc.stdout)
        flat = {d for per_seed in digests.values() for d in per_seed.values()}
        assert len(flat) == 1, digests

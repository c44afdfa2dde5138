"""Pin ``engine="auto"`` as a plain alias of ``incremental``.

``auto`` once switched to a numpy array engine at 1024 resources; that
engine was slower than ``incremental`` at every measured size and is
gone.  The alias stays so existing ``--engine auto`` command lines keep
working, and it must resolve to ``incremental`` on both sides of the old
switch point.
"""

import pytest

from repro.core.digest import result_digest
from repro.core.engine import engine_of, make_simulator, resolve_engine
from repro.core.simulator import simulate
from repro.policies import make_policy
from repro.workloads import uniform_workload


def _tiny_instance(seed=0, horizon=8):
    return uniform_workload(
        num_colors=3, horizon=horizon, delta=2, seed=seed, jobs_per_round=1,
        min_exp=0, max_exp=2,
    )


class TestAutoEngine:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 16384])
    def test_auto_resolves_to_incremental(self, n):
        assert resolve_engine("auto") == "incremental"
        # The static partition binds to any resource count.
        sim = make_simulator(
            _tiny_instance(),
            make_policy("static", 2),
            n,
            engine="auto",
        )
        assert engine_of(sim) == "incremental"

    def test_make_simulator_accepts_auto(self):
        instance = _tiny_instance()
        sim = make_simulator(
            instance, make_policy("edf", instance.delta), 8, engine="auto"
        )
        resolved = make_simulator(
            instance, make_policy("edf", instance.delta), 8,
            engine="incremental",
        )
        assert type(sim) is type(resolved)
        assert sim.incremental and resolved.incremental

    def test_auto_is_digest_identical_to_explicit_choice(self):
        instance = _tiny_instance(seed=1, horizon=16)
        runs = {
            engine: simulate(
                instance,
                make_policy(
                    "edf", instance.delta, incremental=engine != "reference"
                ),
                n=8,
                record_events=False,
                engine=engine,
            )
            for engine in ("auto", "incremental", "reference")
        }
        digests = {result_digest(run) for run in runs.values()}
        assert len(digests) == 1

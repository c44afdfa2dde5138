"""LiveSequence: the queue-fed adapter behind live sessions.

Includes the core of the serve determinism contract: pushing a frozen
workload round by round and stepping the simulator manually is
bit-identical to ``Simulator.run`` on the frozen sequence, for both
engines and both paper speeds.
"""

import pytest

from repro.core import LiveSequence, LiveSequenceError, Simulator, result_digest
from repro.core.engine import ENGINES, make_simulator
from repro.core.job import Job
from repro.policies import make_policy
from repro.workloads import poisson_workload


def J(color, arrival, bound, **kw):
    return Job(color=color, arrival=arrival, delay_bound=bound, **kw)


class TestFeeding:
    def test_request_delivers_in_push_order(self):
        live = LiveSequence()
        a, b = J(0, 0, 2), J(1, 0, 2)
        live.push(a)
        live.push(b)
        assert list(live.request(0)) == [a, b]

    def test_rounds_without_jobs_are_empty(self):
        live = LiveSequence()
        assert len(live.request(0)) == 0

    def test_future_rounds_buffer(self):
        live = LiveSequence()
        live.push(J(0, 2, 2))
        assert live.buffered == 1
        live.request(0)
        live.request(1)
        assert len(live.request(2)) == 1
        assert live.buffered == 0

    def test_horizon_tracks_consumption(self):
        live = LiveSequence()
        assert live.horizon == 0
        live.request(0)
        assert live.horizon == 1

    def test_drain_horizon_covers_deadlines(self):
        live = LiveSequence()
        live.push(J(0, 1, 4))
        # Deadline is round 5 (arrival 1 + bound 4); the drop happens in
        # round 5, so stepping rounds 0..5 (horizon 6) fully drains.
        assert live.drain_horizon() == 6


class TestAdmission:
    def test_stale_round_rejected(self):
        live = LiveSequence()
        live.request(0)
        with pytest.raises(LiveSequenceError) as err:
            live.push(J(0, 0, 2))
        assert err.value.reason == "stale_round"

    def test_inconsistent_delay_bound_rejected(self):
        live = LiveSequence()
        live.push(J("x", 0, 2))
        with pytest.raises(LiveSequenceError) as err:
            live.push(J("x", 1, 4))
        assert err.value.reason == "inconsistent_delay_bound"

    def test_closed_rejects_pushes_but_still_delivers(self):
        live = LiveSequence()
        live.push(J(0, 0, 2))
        live.close()
        with pytest.raises(LiveSequenceError) as err:
            live.push(J(1, 0, 2))
        assert err.value.reason == "closed"
        assert len(live.request(0)) == 1

    def test_out_of_order_request_rejected(self):
        live = LiveSequence()
        with pytest.raises(LiveSequenceError) as err:
            live.request(3)
        assert err.value.reason == "out_of_order"

    def test_check_does_not_mutate(self):
        live = LiveSequence()
        live.check("x", 0, 2)
        assert live.delay_bound_of("x") is None
        assert live.num_jobs == 0

    def test_push_many_checks_against_earlier_jobs_of_the_batch(self):
        live = LiveSequence()
        with pytest.raises(LiveSequenceError) as err:
            live.push_many([J("x", 0, 2), J("y", 1, 1), J("x", 1, 3)])
        assert err.value.reason == "inconsistent_delay_bound"
        assert "registered with delay bound 2, got 3" in str(err.value)
        # All or nothing: the two clean jobs were not admitted either.
        assert live.num_jobs == 0
        assert live.delay_bounds() == {}
        live.push_many([J("x", 0, 2), J("y", 1, 1)])
        assert live.num_jobs == live.buffered == 2
        assert live.delay_bounds() == {"x": 2, "y": 1}
        assert live.drain_horizon() == 3


class TestLiveReplayDeterminism:
    """Live push-and-step must be bit-identical to the offline run."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("speed", [1, 2])
    def test_digest_matches_offline_run(self, engine, speed):
        instance = poisson_workload(delta=4, seed=11, horizon=96)
        offline = make_simulator(
            instance,
            make_policy("dlru-edf", 4),
            8,
            engine=engine,
            speed=speed,
        ).run()

        live = LiveSequence()
        sim = make_simulator(
            live.as_instance(4),
            make_policy("dlru-edf", 4),
            8,
            engine=engine,
            speed=speed,
        )
        for rnd in range(instance.horizon):
            for job in instance.sequence.request(rnd):
                live.push(job)
            sim.step(rnd)

        assert result_digest(sim.run(horizon=0)) == result_digest(offline)

    @pytest.mark.parametrize("speed", [1, 2])
    def test_live_digest_agrees_across_engines(self, speed):
        # The engine axis collapses: one workload, fed live, must produce
        # one digest no matter which engine ran it.
        # One instance (uids come from a process-global counter, so every
        # engine must replay the very same frozen jobs).
        instance = poisson_workload(delta=4, seed=23, horizon=96)
        digests = set()
        for engine in ENGINES:
            live = LiveSequence()
            sim = make_simulator(
                live.as_instance(4),
                make_policy("dlru-edf", 4),
                8,
                engine=engine,
                speed=speed,
            )
            for rnd in range(instance.horizon):
                for job in instance.sequence.request(rnd):
                    live.push(job)
                sim.step(rnd)
            digests.add(result_digest(sim.run(horizon=0)))
        assert len(digests) == 1

    def test_early_push_of_whole_workload_is_equivalent(self):
        # Buffering every job up front (arrivals still in the future) must
        # schedule identically to feeding one round at a time.
        instance = poisson_workload(delta=2, seed=5, horizon=64)
        offline = Simulator(
            instance, make_policy("edf", 2), n=4
        ).run()
        live = LiveSequence()
        for job in instance.sequence.jobs():
            live.push(job)
        sim = Simulator(live.as_instance(2), make_policy("edf", 2), n=4)
        for rnd in range(instance.horizon):
            sim.step(rnd)
        assert result_digest(sim.run(horizon=0)) == result_digest(offline)

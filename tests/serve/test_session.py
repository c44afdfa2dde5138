"""Sharding, capacity splits, and atomic admission control."""

import pytest

from repro.core.job import Job
from repro.policies import make_policy
from repro.serve.session import (
    AdmissionError,
    ShardedSession,
    shard_of,
    split_capacity,
)


def J(color, arrival, bound, **kw):
    return Job(color=color, arrival=arrival, delay_bound=bound, **kw)


def session(**kw):
    # delta=1 keeps EDF's eligibility gate open from the first arrival, so
    # admission tests can reason about executions without counter wrapping.
    defaults = dict(
        n=8,
        delta=1,
        policy_factory=lambda: make_policy("edf", 1),
        shards=2,
    )
    defaults.update(kw)
    return ShardedSession(**defaults)


class TestShardOf:
    def test_deterministic(self):
        assert shard_of("video", 4) == shard_of("video", 4)

    def test_single_shard_is_zero(self):
        assert shard_of("anything", 1) == 0

    def test_distinguishes_types(self):
        # "1" and 1 are different colors and may land on different shards;
        # the hash must at least frame them differently.
        labels = {f"{type(c).__name__}:{c!r}" for c in (1, "1")}
        assert len(labels) == 2

    def test_spreads_colors(self):
        owners = {shard_of(c, 4) for c in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)


class TestSplitCapacity:
    def test_uniform_split_is_exact(self):
        assert split_capacity(16, 4) == [4, 4, 4, 4]

    def test_remainder_goes_to_low_ids(self):
        assert split_capacity(10, 3) == [4, 3, 3]

    def test_every_shard_gets_at_least_one(self):
        with pytest.raises(ValueError):
            split_capacity(2, 3)

    def test_total_is_preserved(self):
        for n in (7, 16, 33):
            for shards in (1, 2, 3, 5):
                if n >= shards:
                    assert sum(split_capacity(n, shards)) == n

    def test_structural_policy_requirements_reported(self):
        with pytest.raises(ValueError, match="shard 0 got capacity 6"):
            session(
                n=17, shards=3,
                policy_factory=lambda: make_policy("dlru-edf", 4),
            )


class TestAtomicAdmission:
    def test_accepts_and_routes_by_color(self):
        s = session()
        s.submit([J("a", 0, 2), J("b", 0, 2), J("a", 0, 2)])
        owner = s.shard_for("a")
        assert owner.live.num_jobs >= 2

    def test_duplicate_uid_rejected(self):
        s = session()
        job = J("a", 0, 2)
        s.submit([job])
        with pytest.raises(AdmissionError) as err:
            s.submit([J("b", 0, 2, uid=job.uid)])
        assert err.value.reason == "duplicate_uid"

    def test_duplicate_uid_within_batch_rejected(self):
        s = session()
        with pytest.raises(AdmissionError):
            s.submit([J("a", 0, 2, uid=1), J("b", 0, 2, uid=1)])

    def test_inconsistent_bound_within_batch_rejected(self):
        s = session()
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 2), J("a", 1, 4)])
        assert err.value.reason == "inconsistent_delay_bound"
        assert err.value.index == 1

    def test_rejected_batch_leaves_no_trace(self):
        s = session()
        good = J("a", 0, 2)
        with pytest.raises(AdmissionError):
            # Last job reuses the first one's uid, poisoning the whole batch.
            s.submit([good, J("b", 0, 2), J("c", 0, 2, uid=good.uid)])
        assert s.pending == 0
        # The good job from the failed batch is still admissible.
        s.submit([good])
        assert s.pending == 1

    def test_stale_round_rejected_after_tick(self):
        s = session()
        s.tick()
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 2)])
        assert err.value.reason == "stale_round"

    def test_backpressure_bounds_in_flight_jobs(self):
        s = session(shards=1, max_pending=3)
        s.submit([J("a", 0, 8), J("a", 0, 8), J("a", 0, 8)])
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 8)])
        assert err.value.reason == "backpressure"

    def test_backpressure_releases_as_rounds_drain(self):
        s = session(shards=1, max_pending=2, n=2)
        s.submit([J("a", 0, 1), J("a", 0, 1)])
        with pytest.raises(AdmissionError):
            s.submit([J("a", 1, 1)])
        s.tick()  # both execute (n=2 covers them)
        s.submit([J("a", 1, 1)])

    def test_closed_session_rejects(self):
        s = session()
        s.close()
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 2)])
        assert err.value.reason == "closed"


class TestLockstepTick:
    def test_jobs_never_cross_shards(self):
        s = session(shards=2)
        jobs = [J(c, 0, 4) for c in range(12)]
        s.submit(jobs)
        for _ in range(5):  # rounds 0..4; round 4 is the drop round
            s.tick()
        stats = s.stats()
        done = [
            sh["ledger"]["drop_count"] + len(self.executed_of(s, i))
            for i, sh in enumerate(stats["shards"])
        ]
        assert sum(done) == 12

    @staticmethod
    def executed_of(s, shard_id):
        return s.shards[shard_id].sim.executed_uids

    def test_result_frame_shape(self):
        s = session(shards=2, n=8)
        s.submit([J(c, 0, 1) for c in range(10)])
        result = s.tick()
        assert result["round"] == 0
        assert result["executed"] == sorted(result["executed"])
        assert len(result["executed"]) + len(result["dropped"]) <= 10
        assert result["recolored"] >= 1
        assert result["cost"] > 0

    def test_stats_carry_per_shard_digests(self):
        s = session()
        s.submit([J("a", 0, 2)])
        s.tick()
        stats = s.stats()
        assert len(stats["shards"]) == 2
        for shard in stats["shards"]:
            assert set(shard["digests"]) == {
                "ledger", "schedule", "events", "run",
            }


class TestEngineDeterminism:
    """Per-shard live digests must be byte-identical to offline runs and
    across engines — the serve-side leg of the engine oracle."""

    @staticmethod
    def _live_shard_digests(instance, engine, shards=2, n=8):
        s = ShardedSession(
            n=n,
            delta=instance.delta,
            policy_factory=lambda: make_policy("dlru-edf", instance.delta),
            shards=shards,
            engine=engine,
        )
        assert s.engine == engine
        for rnd in range(instance.horizon):
            jobs = list(instance.sequence.request(rnd))
            if jobs:
                s.submit(jobs)
            s.tick()
        while s.round < s.drain_horizon():
            s.tick()
        return [shard.digests() for shard in s.shards]

    @staticmethod
    def _offline_shard_digests(instance, engine, capacities, rounds):
        from repro.core.digest import component_digests
        from repro.core.engine import make_simulator
        from repro.core.request import Instance, RequestSequence

        per_shard = [[] for _ in capacities]
        for rnd in range(instance.horizon):
            for job in instance.sequence.request(rnd):
                per_shard[shard_of(job.color, len(capacities))].append(job)
        out = []
        for shard_id, jobs in enumerate(per_shard):
            shard_instance = Instance(
                RequestSequence(jobs, horizon=rounds),
                instance.delta,
                name=f"offline/shard{shard_id}",
            )
            policy = make_policy("dlru-edf", instance.delta)
            result = make_simulator(
                shard_instance,
                policy,
                capacities[shard_id],
                engine=engine,
            ).run(horizon=rounds)
            out.append(component_digests(
                result.ledger,
                result.schedule,
                result.events,
                result.executed_uids,
                result.dropped_uids,
            ))
        return out

    @pytest.mark.parametrize("engine", ["reference", "incremental"])
    def test_live_matches_offline(self, engine):
        from repro.workloads import poisson_workload

        instance = poisson_workload(delta=4, seed=17, horizon=64)
        live = self._live_shard_digests(instance, engine)
        rounds = self._rounds(instance)
        offline = self._offline_shard_digests(
            instance, engine, capacities=[4, 4], rounds=rounds
        )
        assert live == offline

    @staticmethod
    def _rounds(instance):
        # Mirror the session: tick through the drain horizon so both the
        # live and the offline runs cover every deadline.
        last = max(j.deadline for j in instance.sequence.jobs())
        return max(instance.horizon, last + 1)

    def test_engines_agree_live(self):
        from repro.workloads import poisson_workload

        instance = poisson_workload(delta=4, seed=29, horizon=64)
        per_engine = {
            engine: self._live_shard_digests(instance, engine)
            for engine in ("reference", "incremental")
        }
        assert per_engine["incremental"] == per_engine["reference"]

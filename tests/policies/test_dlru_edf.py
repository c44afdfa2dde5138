"""Unit tests for algorithm DeltaLRU-EDF (Section 3.1.3)."""

from collections import Counter

import pytest

from repro.core.engine import make_simulator
from repro.core.job import Job
from repro.core.pending import PendingPool
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.core.simulator import simulate
from repro.policies.dlru import DeltaLRUPolicy
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.edf import EDFPolicy
from repro.policies.ranking import MaintainedRanking
from repro.workloads.adversarial import (
    anti_dlru_instance,
    anti_dlru_offline_schedule,
    anti_edf_instance,
    anti_edf_offline_schedule,
)
from repro.workloads.generators import rate_limited_workload
from repro.workloads.scenarios import datacenter_workload


def batched(jobs_spec, delta=1):
    jobs = [
        Job(color=c, arrival=a, delay_bound=b)
        for c, a, b, count in jobs_spec
        for _ in range(count)
    ]
    return Instance(RequestSequence(jobs), delta=delta)


class TestConstruction:
    def test_requires_n_divisible_by_four(self):
        inst = batched([(0, 0, 2, 1)])
        with pytest.raises(ValueError, match="divisible by 4"):
            simulate(inst, DeltaLRUEDFPolicy(1), n=6)

    def test_unreplicated_requires_even_n(self):
        inst = batched([(0, 0, 2, 1)])
        with pytest.raises(ValueError, match="even"):
            simulate(inst, DeltaLRUEDFPolicy(1, replication=False), n=3)

    def test_invalid_lru_fraction(self):
        with pytest.raises(ValueError):
            DeltaLRUEDFPolicy(1, lru_fraction=1.5)

    def test_capacity_split(self):
        inst = batched([(0, 0, 2, 1)])
        policy = DeltaLRUEDFPolicy(1)
        simulate(inst, policy, n=8)
        assert policy.distinct_capacity == 4
        assert policy.lru_capacity == 2
        assert policy.edf_top == 2

    def test_capacity_split_exact_decimal_fraction(self):
        # Regression: the split went through binary floating point, so
        # lru_fraction=0.3 at 10 distinct slots gave int(10 * 0.3) == 2
        # instead of the intended 3.  Floats are now read via their decimal
        # literal (0.3 -> 3/10) before the floor.
        inst = batched([(0, 0, 2, 1)])
        policy = DeltaLRUEDFPolicy(1, lru_fraction=0.3, replication=False)
        simulate(inst, policy, n=10)
        assert policy.distinct_capacity == 10
        assert policy.lru_capacity == 3
        assert policy.edf_top == 7

    def test_capacity_split_accepts_fraction_and_string(self):
        from fractions import Fraction

        inst = batched([(0, 0, 2, 1)])
        for share in (Fraction(7, 10), "7/10", 0.7):
            policy = DeltaLRUEDFPolicy(1, lru_fraction=share, replication=False)
            simulate(inst, policy, n=10)
            assert policy.lru_capacity == 7, share
            assert policy.edf_top == 3, share


class TestCacheStructure:
    def test_each_color_in_two_locations(self):
        inst = batched([(0, 0, 4, 8), (1, 0, 4, 8)], delta=2)
        run = simulate(inst, DeltaLRUEDFPolicy(2), n=8)
        # Count configured copies at the end of round 0 via the event log.
        colors = {}
        for rc in run.events.reconfigs():
            if rc.round == 0:
                colors[rc.location] = rc.new_color
        from collections import Counter
        counts = Counter(colors.values())
        assert all(count == 2 for count in counts.values())

    def test_distinct_capacity_never_exceeded(self):
        inst = batched([(c, 0, 2, 2) for c in range(6)], delta=1)
        policy = DeltaLRUEDFPolicy(1)
        run = simulate(inst, policy, n=8)
        for rnd in range(inst.horizon):
            # Reconstruct cache at each round from policy invariants.
            assert len(policy.lru_set) + len(policy.edf_cached) <= 4

    def test_nonidle_urgent_color_gets_cached(self):
        # Color 9 (bound 2) is urgent and nonidle; many other colors hold
        # the LRU slots.  EDF side must configure color 9.
        spec = [(c, 0, 8, 8) for c in range(3)] + [(9, 0, 2, 2)]
        inst = batched(spec, delta=1)
        run = simulate(inst, DeltaLRUEDFPolicy(1), n=8)
        cached_colors = {rc.new_color for rc in run.events.reconfigs() if rc.round == 0}
        assert 9 in cached_colors


class TestSchedulesValidate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rate_limited(self, seed):
        inst = rate_limited_workload(num_colors=5, horizon=64, delta=3, seed=seed)
        run = simulate(inst, DeltaLRUEDFPolicy(3), n=8)
        led = validate_schedule(run.schedule, inst.sequence, inst.delta)
        assert led.total_cost == run.total_cost

    def test_unreplicated_validates(self):
        inst = rate_limited_workload(num_colors=5, horizon=32, delta=2, seed=9)
        run = simulate(inst, DeltaLRUEDFPolicy(2, replication=False), n=8)
        validate_schedule(run.schedule, inst.sequence, inst.delta)


class TestAgainstAdversaries:
    def test_survives_anti_dlru(self):
        inst = anti_dlru_instance(n=4, j=4, k=6, delta=1)
        off = validate_schedule(
            anti_dlru_offline_schedule(inst), inst.sequence, inst.delta
        )
        combo = simulate(inst, DeltaLRUEDFPolicy(1), n=4, record_events=False)
        dlru = simulate(inst, DeltaLRUPolicy(1), n=4, record_events=False)
        assert combo.total_cost < dlru.total_cost
        assert combo.total_cost <= 6 * off.total_cost

    def test_survives_anti_edf(self):
        inst = anti_edf_instance(n=4, j=3, k=6, delta=5)
        off = validate_schedule(
            anti_edf_offline_schedule(inst), inst.sequence, inst.delta
        )
        combo = simulate(inst, DeltaLRUEDFPolicy(5), n=4, record_events=False)
        edf = simulate(inst, EDFPolicy(5), n=4, record_events=False)
        assert combo.total_cost < edf.total_cost
        assert combo.total_cost <= 6 * off.total_cost


class TestEpochInstrumentation:
    def test_epoch_counts_exposed(self):
        inst = rate_limited_workload(num_colors=4, horizon=64, delta=2, seed=3)
        policy = DeltaLRUEDFPolicy(2)
        run = simulate(inst, policy, n=8, record_events=False)
        assert policy.num_epochs >= 1
        assert policy.ineligible_drops >= 0
        # Lemma 3.3 as a hard invariant of this implementation.
        assert run.ledger.reconfig_cost <= 4 * policy.num_epochs * inst.delta
        # Lemma 3.4 likewise.
        assert policy.ineligible_drops <= policy.num_epochs * inst.delta


class TestLemma31SmallColors:
    def test_never_eligible_colors_cost_at_most_their_jobs(self):
        # Each color has fewer than delta jobs: DeltaLRU-EDF never caches
        # anything and drops everything — cost equals the job count, which
        # is at most OFF's cost (Lemma 3.1).
        inst = batched([(0, 0, 4, 2), (1, 0, 4, 1)], delta=5)
        run = simulate(inst, DeltaLRUEDFPolicy(5), n=8)
        assert run.reconfig_cost == 0
        assert run.drop_cost == 3


@pytest.fixture(scope="class")
def datacenter_round_work():
    """Count the work of the incremental engine on the perfbench
    ``solve-datacenter`` shape at a short horizon: 64 services at n = 1024,
    so the eligible colors always fit in the LRU share of 256."""
    inst = datacenter_workload(num_services=64, horizon=512, delta=8, seed=0)
    policy = DeltaLRUEDFPolicy(8)
    sim = make_simulator(
        inst, policy, 1024, engine="incremental", record_events=False
    )
    counts = Counter()

    def counted_key(name, key):
        def count(color, rnd):
            counts[name] += 1
            return key(color, rnd)

        return count

    policy._lru_ranking._key = counted_key("lru_keys", policy._lru_ranking._key)
    policy._edf_ranking._key = counted_key("edf_keys", policy._edf_ranking._key)
    drop_expired = PendingPool.drop_expired
    ordered = MaintainedRanking.ordered
    decide = policy.desired_configuration
    previous = None

    def counted_drop(pool, rnd):
        head = pool._heap[0]
        counts["drop_calls"] += 1
        if head[0] > rnd:
            counts["drop_calls_without_work"] += 1
        return drop_expired(pool, rnd)

    def counted_ordered(ranking):
        if ranking is policy._edf_ranking:
            counts["edf_ordered_reads"] += 1
        return ordered(ranking)

    def counted_decide(rnd, mini):
        nonlocal previous
        desired = decide(rnd, mini)
        counts["decisions"] += 1
        counts["reused"] += desired is previous
        previous = desired
        return desired

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PendingPool, "drop_expired", counted_drop)
        mp.setattr(MaintainedRanking, "ordered", counted_ordered)
        mp.setattr(policy, "desired_configuration", counted_decide)
        for rnd in range(inst.sequence.horizon):
            sim.step(rnd)
    counts["rounds"] = inst.sequence.horizon
    return counts


class TestRoundWork:
    """Counts, not times: the round's work follows what changed."""

    def test_desired_list_reused_when_sets_unchanged(self, datacenter_round_work):
        counts = datacenter_round_work
        assert counts["decisions"] == counts["rounds"]
        assert counts["reused"] >= 0.95 * counts["decisions"]

    def test_rankings_build_no_key(self, datacenter_round_work):
        # Membership decides every round and no order is read, so both
        # rankings only mark their changes (eager keying built 416 LRU and
        # 527 EDF keys here).
        assert datacenter_round_work["lru_keys"] == 0
        assert datacenter_round_work["edf_keys"] == 0

    def test_edf_ranking_never_read_in_order(self, datacenter_round_work):
        # Every eligible color fits in the LRU share, so the EDF walk
        # would skip every color and the eviction never triggers.
        assert datacenter_round_work["edf_ordered_reads"] == 0

    def test_drop_phase_calls_only_pools_with_work(self, datacenter_round_work):
        counts = datacenter_round_work
        assert counts["drop_calls"] > 0
        assert counts["drop_calls_without_work"] == 0

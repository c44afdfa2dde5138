"""Full-run bit-identity: incremental engine vs the reference engine.

Each test builds one instance (job uids come from a process-global counter,
so both engines must see the *same* ``Instance``) and runs it through both
``incremental=True`` and ``incremental=False``.  The ledger, the schedule,
the event log, and the executed/dropped uid sets must match exactly — this
is the contract that makes the incremental engine a drop-in replacement
for the reference oracle.
"""

import pytest

from repro.core.digest import result_digest
from repro.core.simulator import simulate
from repro.policies.dlru import DeltaLRUPolicy
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.edf import EDFPolicy, SeqEDFPolicy
from repro.policies.ranking import MaintainedRanking
from repro.workloads.generators import bursty_workload, rate_limited_workload
from repro.workloads.scenarios import datacenter_workload
from tests.core.hashseed import string_relabel


def _assert_equivalent(instance, make_policy, n, speed=1):
    ref = simulate(
        instance, make_policy(incremental=False), n=n, speed=speed,
        incremental=False,
    )
    inc = simulate(
        instance, make_policy(incremental=True), n=n, speed=speed,
        incremental=True,
    )
    assert inc.ledger.summary() == ref.ledger.summary()
    assert inc.schedule.to_json() == ref.schedule.to_json()
    assert [repr(e) for e in inc.events] == [repr(e) for e in ref.events]
    assert sorted(inc.executed_uids) == sorted(ref.executed_uids)
    assert sorted(inc.dropped_uids) == sorted(ref.dropped_uids)
    assert result_digest(inc) == result_digest(ref)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_dlru_edf_equivalent(seed):
    inst = rate_limited_workload(num_colors=12, horizon=192, delta=4, seed=seed)
    _assert_equivalent(
        inst, lambda incremental: DeltaLRUEDFPolicy(4, incremental=incremental),
        n=8,
    )


def test_dlru_edf_uneven_split_equivalent():
    inst = bursty_workload(num_colors=10, horizon=192, delta=4, seed=1)
    _assert_equivalent(
        inst,
        lambda incremental: DeltaLRUEDFPolicy(
            4, lru_fraction=0.35, incremental=incremental
        ),
        n=12,
    )


def _lru_reads(monkeypatch, policies) -> list[str]:
    """Record, in order, how the incremental policies read their LRU
    ranking: ``members`` (membership decides) or ``top`` (order decides)."""
    reads: list[str] = []
    for name in ("members", "top"):
        original = getattr(MaintainedRanking, name)

        def spy(ranking, *args, _name=name, _original=original):
            if any(ranking is p._lru_ranking for p in policies):
                reads.append(_name)
            return _original(ranking, *args)

        monkeypatch.setattr(MaintainedRanking, name, spy)
    return reads


def _recording_dlru_edf(policies, delta, **kwargs):
    def make(incremental):
        policy = DeltaLRUEDFPolicy(delta, incremental=incremental, **kwargs)
        policies.append(policy)
        return policy

    return make


def test_dlru_edf_membership_decides_equivalent(monkeypatch):
    # The solve-datacenter shape at a short horizon: 64 services never
    # fill the LRU share of 256 colors, so membership decides every round.
    inst = datacenter_workload(num_services=64, horizon=512, delta=8, seed=0)
    policies: list[DeltaLRUEDFPolicy] = []
    reads = _lru_reads(monkeypatch, policies)
    _assert_equivalent(inst, _recording_dlru_edf(policies, 8), n=1024)
    assert reads and set(reads) == {"members"}


@pytest.mark.parametrize(
    "n, lru_fraction, switches",
    [
        # The paper's split: the eligible count exceeds the LRU share of 4
        # colors after 320 rounds in which membership decided, so the lazy
        # rankings settle that whole stretch at their first ordered read.
        # A color the EDF half holds stays cached, hence eligible, so the
        # count does not come back down on this instance.
        (16, 0.5, ("mt",)),
        # No EDF half: a color that leaves the LRU set loses its slots and
        # turns ineligible at its next boundary, so the count crosses the
        # share in both directions, dozens of times.
        (8, 1, ("mt", "tm")),
    ],
    ids=["paper-split", "lru-only"],
)
def test_dlru_edf_regime_switch_equivalent(monkeypatch, n, lru_fraction, switches):
    # E12's quick instance.
    inst = datacenter_workload(num_services=8, horizon=2048, delta=8, seed=0)
    policies: list[DeltaLRUEDFPolicy] = []
    reads = _lru_reads(monkeypatch, policies)
    _assert_equivalent(
        inst, _recording_dlru_edf(policies, 8, lru_fraction=lru_fraction), n=n
    )
    regimes = "".join(read[0] for read in reads)
    for switch in switches:
        assert switch in regimes


@pytest.mark.parametrize("seed", [0, 7])
def test_edf_equivalent(seed):
    inst = rate_limited_workload(num_colors=10, horizon=192, delta=4, seed=seed)
    _assert_equivalent(
        inst, lambda incremental: EDFPolicy(4, incremental=incremental), n=8
    )


def test_seq_edf_speed2_equivalent():
    # DS-Seq-EDF: speed=2 exercises the mini-round path on both engines.
    inst = rate_limited_workload(num_colors=10, horizon=160, delta=4, seed=2)
    _assert_equivalent(
        inst, lambda incremental: SeqEDFPolicy(4, incremental=incremental),
        n=8, speed=2,
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_dlru_equivalent(seed):
    inst = datacenter_workload(num_services=8, horizon=256, delta=8, seed=seed)
    _assert_equivalent(
        inst, lambda incremental: DeltaLRUPolicy(8, incremental=incremental),
        n=8,
    )


def test_string_colors_equivalent():
    # String colors hash by PYTHONHASHSEED; any raw-set iteration on either
    # engine path would break this in-process comparison too.
    inst = string_relabel(
        rate_limited_workload(num_colors=12, horizon=160, delta=4, seed=4)
    )
    _assert_equivalent(
        inst, lambda incremental: DeltaLRUEDFPolicy(4, incremental=incremental),
        n=8,
    )

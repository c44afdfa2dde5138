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

"""E10, E12 — the motivating scenario and engine throughput.

- **E10**: the introduction's background/short-term dilemma — naive policies
  either thrash (classic LRU, greedy) or underutilize (static partition);
  the paper's stack does neither.
- **E12**: simulator throughput (rounds and jobs per second) on large
  workloads, timed by :func:`throughput_run`.
"""

from __future__ import annotations

import time

from repro.analysis.competitive import empirical_ratio_bracket
from repro.analysis.reporting import Table
from repro.core.simulator import simulate
from repro.experiments.common import ExperimentResult, pick
from repro.policies.baselines import (
    ClassicLRUPolicy,
    GreedyUtilizationPolicy,
    StaticPartitionPolicy,
)
from repro.policies.dlru import DeltaLRUPolicy
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.edf import EDFPolicy
from repro.workloads.scenarios import background_shortterm_instance, datacenter_workload

_E10_PARAMS = {
    "quick": {"n": 8, "delta": 4},
    "full": {"n": 16, "delta": 4},
}

_E12_PARAMS = {
    "quick": {"num_services": 8, "horizon": 2048, "n": 16, "delta": 8},
    "full": {"num_services": 16, "horizon": 16384, "n": 32, "delta": 8},
}


def run_e10(scale: str = "quick") -> ExperimentResult:
    """Background + short-term scenario: who thrashes, who underutilizes."""
    p = pick(scale, _E10_PARAMS)
    n, delta = p["n"], p["delta"]
    # Scale the scenario with n: three times more short-term colors than
    # any static allocation can pin, so underutilization is structural.
    num_short = 3 * n
    short_bound = 16
    quiet_after = 2 * num_short * short_bound
    long_bound = 1 << (2 * quiet_after - 1).bit_length()
    instance = background_shortterm_instance(
        delta=delta,
        num_short=num_short,
        short_bound=short_bound,
        quiet_after=quiet_after,
        long_bound=long_bound,
        background_jobs=512,
    )
    m = 1
    table = Table(
        ["policy", "reconfig cost", "drop cost", "total", "ratio_high"],
        title=f"E10 — background/short-term scenario (n={n}, m={m})",
    )
    costs: dict[str, int] = {}
    reconfigs: dict[str, int] = {}
    drops: dict[str, int] = {}
    policies = [
        ("static", StaticPartitionPolicy()),
        ("classic-lru", ClassicLRUPolicy()),
        ("greedy", GreedyUtilizationPolicy()),
        ("dlru", DeltaLRUPolicy(delta)),
        ("edf", EDFPolicy(delta)),
        ("dlru-edf", DeltaLRUEDFPolicy(delta)),
    ]
    for name, policy in policies:
        run = simulate(instance, policy, n=n, record_events=False)
        bracket = empirical_ratio_bracket(run.total_cost, instance, m)
        costs[name] = run.total_cost
        reconfigs[name] = run.reconfig_cost
        drops[name] = run.drop_cost
        table.add_row(name, run.reconfig_cost, run.drop_cost, run.total_cost,
                      bracket.ratio_high)

    result = ExperimentResult(
        experiment_id="E10",
        title="Intro scenario — thrashing vs underutilization",
        claim="the EDF+LRU combination avoids both failure modes of naive policies",
        table=table,
        data={"costs": costs, "reconfigs": reconfigs, "drops": drops},
    )
    result.check(
        "dlru-edf beats the static partition",
        costs["dlru-edf"] < costs["static"],
    )
    result.check(
        "dlru-edf beats greedy utilization",
        costs["dlru-edf"] < costs["greedy"],
    )
    result.check(
        "dlru-edf avoids dlru's underutilization (beats it outright)",
        costs["dlru-edf"] < costs["dlru"],
    )
    result.check(
        "dlru-edf within 25% of the best Section-3 policy "
        "(EDF does not thrash on this benign rotation, so it can edge ahead; "
        "E2/E4 show where it collapses)",
        costs["dlru-edf"] <= 1.25 * min(costs["dlru"], costs["edf"]),
    )
    return result


def throughput_run(scale: str = "quick") -> dict[str, float]:
    """One timed simulation run; returns rounds/sec and jobs/sec."""
    p = pick(scale, _E12_PARAMS)
    instance = datacenter_workload(
        num_services=p["num_services"], horizon=p["horizon"],
        delta=p["delta"], seed=0,
    )
    policy = DeltaLRUEDFPolicy(p["delta"])
    start = time.perf_counter()
    run = simulate(instance, policy, n=p["n"], record_events=False)
    elapsed = time.perf_counter() - start
    return {
        "rounds": instance.horizon,
        "jobs": instance.sequence.num_jobs,
        "seconds": elapsed,
        "rounds_per_sec": instance.horizon / elapsed,
        "jobs_per_sec": instance.sequence.num_jobs / elapsed,
        "total_cost": run.total_cost,
    }


def run_e12(scale: str = "quick") -> ExperimentResult:
    """Engine throughput."""
    stats = throughput_run(scale)
    table = Table(
        ["rounds", "jobs", "seconds", "rounds/sec", "jobs/sec"],
        title="E12 — simulator throughput",
    )
    table.add_row(
        int(stats["rounds"]), int(stats["jobs"]), stats["seconds"],
        stats["rounds_per_sec"], stats["jobs_per_sec"],
    )
    result = ExperimentResult(
        experiment_id="E12",
        title="Simulator throughput",
        claim="the engine sustains laptop-scale workloads (> 500 rounds/sec)",
        table=table,
        data=stats,
    )
    result.check("engine sustains > 500 rounds/sec", stats["rounds_per_sec"] > 500)
    return result

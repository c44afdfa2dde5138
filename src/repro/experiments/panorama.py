"""E13, E14 — the figure-shaped experiments.

- **E13** (leaderboard): every policy on every workload family, one table —
  the cross-cutting comparison a systems paper would open with.
- **E14** (cost over time): cumulative online cost vs the offline drop
  floor at prefix checkpoints — competitive analysis is a statement about
  *every* prefix, and the series shows the online curve tracking the floor
  within a bounded factor throughout, not just at the horizon.
"""

from __future__ import annotations

from repro.analysis.compare import standard_policy_set
from repro.analysis.reporting import Table
from repro.analysis.series import cost_series, offline_floor_series, sparkline
from repro.core.simulator import simulate
from repro.experiments.common import ExperimentResult, pick
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.reductions.pipeline import solve_online
from repro.workloads.generators import (
    bursty_workload,
    poisson_workload,
    rate_limited_workload,
)
from repro.workloads.scenarios import (
    datacenter_workload,
    router_workload,
)

_E13_PARAMS = {
    "quick": {"n": 8, "delta": 4, "horizon": 192, "seed": 0},
    "full": {"n": 16, "delta": 4, "horizon": 768, "seed": 0},
}

_E14_PARAMS = {
    "quick": {"n": 8, "delta": 4, "horizon": 256, "seed": 1, "checkpoints": 6},
    "full": {"n": 16, "delta": 4, "horizon": 1024, "seed": 1, "checkpoints": 8},
}


def _workload_zoo(p):
    """Workload families with more colors than resources (2n-3n), so no
    static allocation can cover the hot set — the regime the paper targets."""
    n, delta, horizon, seed = p["n"], p["delta"], p["horizon"], p["seed"]
    return [
        ("rate-limited", rate_limited_workload(
            num_colors=2 * n, horizon=horizon, delta=delta, seed=seed)),
        ("poisson", poisson_workload(
            num_colors=2 * n, horizon=horizon, delta=delta, seed=seed, rate=0.25)),
        ("bursty", bursty_workload(
            num_colors=2 * n, horizon=horizon, delta=delta, seed=seed, burst_rate=1.2)),
        ("datacenter", datacenter_workload(
            num_services=3 * n, horizon=horizon, delta=delta, seed=seed)),
        ("router", router_workload(
            num_classes=2 * n, horizon=horizon, delta=delta, seed=seed)),
    ]


def run_e13(scale: str = "quick") -> ExperimentResult:
    """Every policy on every workload family."""
    p = pick(scale, _E13_PARAMS)
    n, delta = p["n"], p["delta"]
    workloads = _workload_zoo(p)
    policies = standard_policy_set(delta)
    names = [name for name, _ in policies] + ["pipeline"]
    table = Table(
        ["workload", "jobs"] + names,
        title=f"E13 — total cost leaderboard (n={n}, Delta={delta})",
    )
    wins: dict[str, int] = {name: 0 for name in names}
    worst_ratio: dict[str, float] = {name: 1.0 for name in names}
    for wname, instance in workloads:
        row: list = [wname, instance.sequence.num_jobs]
        costs: dict[str, int] = {}
        for pname, make_policy in policies:
            run = simulate(instance, make_policy(), n=n, record_events=False)
            costs[pname] = run.total_cost
        costs["pipeline"] = solve_online(instance, n=n, record_events=False).total_cost
        best = min(costs.values())
        for name in names:
            row.append(costs[name])
            if costs[name] == best:
                wins[name] += 1
            worst_ratio[name] = max(
                worst_ratio[name], costs[name] / max(best, 1)
            )
        table.add_row(*row)

    result = ExperimentResult(
        experiment_id="E13",
        title="Leaderboard — every policy on every workload family",
        claim="on benign random traces the cheap heuristics win and the "
        "worst-case-protected policies pay an insurance premium; the "
        "adversarial families (E1/E2/E4/E10) are where the ranking inverts",
        table=table,
        data={"wins": wins, "worst_ratio": worst_ratio},
    )
    result.check(
        "greedy utilization never wins a family (it always overpays reconfig)",
        wins["greedy"] == 0,
    )
    result.check(
        "dlru-edf is never catastrophic on a benign family (within 5x of "
        "the family winner everywhere — contrast: its pure halves lose by "
        "25x+ on their adversarial families in E4)",
        worst_ratio["dlru-edf"] < 5.0,
    )
    result.check(
        "every policy except greedy stays within 10x of the family winner",
        all(worst_ratio[name] < 10.0 for name in names if name != "greedy"),
    )
    return result


def run_e14(scale: str = "quick") -> ExperimentResult:
    """Cumulative online cost vs the offline drop floor over time."""
    p = pick(scale, _E14_PARAMS)
    n, delta = p["n"], p["delta"]
    m = max(n // 8, 1)
    instance = bursty_workload(
        num_colors=n, horizon=p["horizon"], delta=delta,
        seed=p["seed"], burst_rate=1.5,
    )
    horizon = instance.horizon

    run = simulate(
        instance, DeltaLRUEDFPolicy(delta), n=n, record_events=False
    )
    online = cost_series(run.ledger, horizon)
    floor = offline_floor_series(instance.sequence, m, delta)

    points = online.checkpoints(p["checkpoints"])
    table = Table(
        ["round", "online cumulative", "offline floor (m)", "prefix ratio"],
        title=f"E14 — cost over time (n={n}, m={m})",
    )
    ratios = []
    for rnd, value in points:
        fl = floor.at(rnd)
        ratio = value / fl if fl > 0 else float("inf")
        if fl > 0:
            ratios.append(ratio)
        table.add_row(rnd, value, fl, ratio if fl > 0 else float("inf"))

    result = ExperimentResult(
        experiment_id="E14",
        title="Cost over time — online vs offline floor at every prefix",
        claim="the online cumulative cost tracks the offline floor at every "
        "checkpoint, not only at the horizon",
        table=table,
        data={
            "online_spark": sparkline(online.total),
            "floor_spark": sparkline(floor.total),
            "ratios": ratios,
        },
    )
    result.table.add_row("spark", result.data["online_spark"][:18],
                         result.data["floor_spark"][:18], "")
    result.check(
        "online cumulative cost is monotone nondecreasing",
        bool((online.total[1:] >= online.total[:-1] - 1e-9).all()),
    )
    result.check(
        "prefix ratios bounded once the floor is positive (< 40)",
        max(ratios, default=0) < 40,
    )
    return result

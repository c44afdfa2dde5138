"""E3, E8, E9, E11 — the resource-competitiveness theorems.

- **E3** (Theorem 1): DeltaLRU-EDF on rate-limited batched instances with
  ``n = 8m`` stays within a constant factor of the *exact* optimum.
- **E8** (Theorem 2): Distribute on batched (not rate-limited) instances.
- **E9** (Theorem 3): VarBatch on general instances.
- **E11**: resource-augmentation sweep — the ratio as a function of ``n/m``.

E3 uses the exact solver (small instances); E8/E9 bracket OPT with the
window-planner upper bound and the combinatorial lower bound (DESIGN.md §6),
so the reported ``ratio_high`` column over-estimates the true ratio.
"""

from __future__ import annotations

import statistics

from repro.analysis.competitive import empirical_ratio_bracket, empirical_ratio_exact
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, pick
from repro.reductions.pipeline import solve_batched, solve_online, solve_rate_limited
from repro.workloads.generators import (
    batched_workload,
    bursty_workload,
    poisson_workload,
    rate_limited_workload,
)

_E3_PARAMS = {
    "quick": {"seeds": [0, 1, 2, 3], "num_colors": 4, "horizon": 32, "delta": 2,
              "m": 1, "load": 0.3, "max_exp": 3},
    "full": {"seeds": list(range(12)), "num_colors": 5, "horizon": 64, "delta": 3,
             "m": 1, "load": 0.3, "max_exp": 3},
}

_E8_PARAMS = {
    "quick": {"seeds": [0, 1, 2], "num_colors": 4, "horizon": 64, "delta": 3, "m": 1},
    "full": {"seeds": list(range(8)), "num_colors": 6, "horizon": 256, "delta": 4, "m": 2},
}

_E9_PARAMS = {
    "quick": {"seeds": [0, 1, 2], "num_colors": 4, "horizon": 96, "delta": 3,
              "m": 1, "rate": 0.25},
    "full": {"seeds": list(range(8)), "num_colors": 8, "horizon": 512, "delta": 4,
             "m": 2, "rate": 0.3},
}

_E11_PARAMS = {
    "quick": {"seed": 0, "num_colors": 5, "horizon": 32, "delta": 2,
              "m": 1, "ns": [4, 8, 16, 24], "load": 0.7},
    "full": {"seed": 0, "num_colors": 8, "horizon": 64, "delta": 2,
             "m": 1, "ns": [4, 8, 16, 24, 32, 48], "load": 0.7},
}


def run_e3(scale: str = "quick") -> ExperimentResult:
    """Theorem 1: DeltaLRU-EDF vs exact OPT on rate-limited batched input."""
    # Imported here, as in E11: importing repro.experiments (the serve
    # process does) need not load the exact solver.
    from repro.opt.backends import solve_opt

    p = pick(scale, _E3_PARAMS)
    m = p["m"]
    n = 8 * m
    table = Table(
        ["seed", "jobs", "online cost", "opt(m)", "ratio"],
        title=f"E3 — Theorem 1: DeltaLRU-EDF (n={n}) vs exact OPT (m={m})",
    )
    ratios = []
    for seed in p["seeds"]:
        instance = rate_limited_workload(
            num_colors=p["num_colors"], horizon=p["horizon"], delta=p["delta"],
            seed=seed, load=p["load"], max_exp=p["max_exp"],
        )
        run = solve_rate_limited(instance, n=n, record_events=False)
        opt = solve_opt(instance, m).cost
        ratio = run.total_cost / opt if opt else (0.0 if run.total_cost == 0 else float("inf"))
        ratios.append(ratio)
        table.add_row(seed, instance.sequence.num_jobs, run.total_cost, opt, ratio)

    result = ExperimentResult(
        experiment_id="E3",
        title="Theorem 1 — DeltaLRU-EDF is resource competitive (rate-limited)",
        claim="constant ratio vs OPT with n = 8m",
        table=table,
        data={"ratios": ratios},
    )
    finite = [r for r in ratios if r != float("inf")]
    result.check("all ratios finite", len(finite) == len(ratios))
    result.check("max ratio bounded by a constant (< 16)", max(finite, default=0) < 16)
    result.check(
        "mean ratio small (< 8)",
        statistics.mean(finite) < 8 if finite else True,
    )
    return result


def run_e8(scale: str = "quick") -> ExperimentResult:
    """Theorem 2: Distribute on batched (not rate-limited) instances."""
    p = pick(scale, _E8_PARAMS)
    m = p["m"]
    n = 8 * m
    table = Table(
        ["seed", "jobs", "online cost", "opt upper", "opt lower", "ratio_low", "ratio_high"],
        title=f"E8 — Theorem 2: Distribute (n={n}) vs OPT bracket (m={m})",
    )
    highs, lows = [], []
    for seed in p["seeds"]:
        instance = batched_workload(
            num_colors=p["num_colors"], horizon=p["horizon"],
            delta=p["delta"], seed=seed,
        )
        run = solve_batched(instance, n=n, record_events=False)
        bracket = empirical_ratio_bracket(run.total_cost, instance, m)
        highs.append(bracket.ratio_high)
        lows.append(bracket.ratio_low)
        table.add_row(
            seed, instance.sequence.num_jobs, run.total_cost,
            bracket.opt_upper, bracket.opt_lower,
            bracket.ratio_low, bracket.ratio_high,
        )

    result = ExperimentResult(
        experiment_id="E8",
        title="Theorem 2 — Distribute is resource competitive (batched)",
        claim="constant ratio vs OPT with n = 8m",
        table=table,
        data={"ratio_high": highs, "ratio_low": lows},
    )
    result.check("upper ratio estimate bounded (< 20)", max(highs) < 20)
    result.check("lower ratio estimate bounded (< 8)", max(lows) < 8)
    return result


def run_e9(scale: str = "quick") -> ExperimentResult:
    """Theorem 3: the full VarBatch pipeline on general instances."""
    p = pick(scale, _E9_PARAMS)
    m = p["m"]
    n = 8 * m
    table = Table(
        ["workload", "seed", "jobs", "online cost", "opt upper", "opt lower",
         "ratio_low", "ratio_high"],
        title=f"E9 — Theorem 3: VarBatch pipeline (n={n}) vs OPT bracket (m={m})",
    )
    highs, lows = [], []
    for seed in p["seeds"]:
        for label, instance in (
            ("poisson", poisson_workload(
                num_colors=p["num_colors"], horizon=p["horizon"],
                delta=p["delta"], seed=seed, rate=p["rate"])),
            ("bursty", bursty_workload(
                num_colors=p["num_colors"], horizon=p["horizon"],
                delta=p["delta"], seed=seed, burst_rate=1.0)),
        ):
            run = solve_online(instance, n=n, record_events=False)
            bracket = empirical_ratio_bracket(run.total_cost, instance, m)
            highs.append(bracket.ratio_high)
            lows.append(bracket.ratio_low)
            table.add_row(
                label, seed, instance.sequence.num_jobs, run.total_cost,
                bracket.opt_upper, bracket.opt_lower,
                bracket.ratio_low, bracket.ratio_high,
            )

    result = ExperimentResult(
        experiment_id="E9",
        title="Theorem 3 — VarBatch is resource competitive (general input)",
        claim="constant ratio vs OPT with constant augmentation",
        table=table,
        data={"ratio_high": highs, "ratio_low": lows},
    )
    result.check("upper ratio estimate bounded (< 30)", max(highs) < 30)
    result.check("lower ratio estimate bounded (< 10)", max(lows) < 10)
    return result


def run_e11(scale: str = "quick") -> ExperimentResult:
    """Resource augmentation sweep: ratio vs n for fixed OPT(m)."""
    from repro.opt.backends import solve_opt

    p = pick(scale, _E11_PARAMS)
    m = p["m"]
    instance = rate_limited_workload(
        num_colors=p["num_colors"], horizon=p["horizon"], delta=p["delta"],
        seed=p["seed"], load=p["load"],
    )
    opt = solve_opt(instance, m).cost
    table = Table(
        ["n", "n/m", "online cost", "opt(m)", "ratio"],
        title="E11 — ratio vs resource augmentation",
    )
    ratios = []
    for n in p["ns"]:
        run = solve_rate_limited(instance, n=n, record_events=False)
        ratio = run.total_cost / opt if opt else float("inf")
        ratios.append(ratio)
        table.add_row(n, n // m, run.total_cost, opt, ratio)

    result = ExperimentResult(
        experiment_id="E11",
        title="Resource augmentation sweep",
        claim="more augmentation never hurts much; ratio flattens to a constant",
        table=table,
        data={"ratios": ratios, "ns": p["ns"]},
    )
    result.check(
        "ratio at the largest augmentation <= ratio at the smallest",
        ratios[-1] <= ratios[0],
    )
    result.check("ratio bounded at max augmentation (< 10)", ratios[-1] < 10)
    return result

#!/usr/bin/env python
"""Measuring empirical competitive ratios against the *exact* optimum.

On small instances the exact solver (``repro.opt.solve_opt``, a memoized
DP whose every optimum is replay-validated) computes the true optimal
offline cost, so the competitive ratio of Theorem 1 can be measured rather
than bracketed.  This example sweeps load and resource augmentation.

Run:  python examples/competitive_ratio.py
"""

from repro.analysis.reporting import Table
from repro.experiments.montecarlo import replicate
from repro.opt import solve_opt
from repro.reductions.pipeline import solve_rate_limited
from repro.workloads import rate_limited_workload


def main() -> None:
    print("Exact competitive ratios: DeltaLRU-EDF (n = 8m) vs OPT (m = 1)\n")

    table = Table(
        ["load", "ratio (mean ± 95% CI)", "max ratio"],
        title="ratio vs load (4 colors, 32 rounds, Delta=2, 6 seeds)",
    )
    for load in (0.15, 0.3, 0.5, 0.7):

        def ratio(seed: int) -> float:
            instance = rate_limited_workload(
                num_colors=4, horizon=32, delta=2, seed=seed,
                load=load, max_exp=3,
            )
            online = solve_rate_limited(instance, n=8, record_events=False)
            return online.total_cost / solve_opt(instance, 1).cost

        rep = replicate(ratio, seeds=range(6))
        table.add_row(load, rep.summary(), max(rep.values))
    print(table.render())

    print()
    instance = rate_limited_workload(
        num_colors=4, horizon=32, delta=2, seed=1, load=0.4, max_exp=3
    )
    opt = solve_opt(instance, 1)
    print(f"one instance in detail: OPT(m=1) = {opt.cost} "
          f"({opt.reconfig_count} reconfigs, "
          f"{opt.drop_cost} drops; {opt.states} search states)")

    sweep = Table(["n", "online cost", "ratio vs OPT(1)"],
                  title="augmentation sweep on that instance")
    for n in (4, 8, 16, 32):
        online = solve_rate_limited(instance, n=n, record_events=False)
        sweep.add_row(n, online.total_cost, online.total_cost / opt.cost)
    print()
    print(sweep.render())


if __name__ == "__main__":
    main()

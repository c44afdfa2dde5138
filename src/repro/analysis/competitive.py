"""Empirical competitive-ratio measurement.

Two modes:

- **exact** (small instances): ratio against the exact optimal offline cost
  from :func:`repro.opt.solve_opt`;
- **bracket** (any size): the true ratio lies between
  ``online / heuristic_cost`` (the window planner upper-bounds OPT) and
  ``online / lower_bound`` (Par-EDF / per-color bounds lower-bound OPT).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.request import Instance
from repro.offline.bounds import opt_lower_bound
from repro.offline.heuristic import window_planner_cost


@dataclass(frozen=True)
class RatioBracket:
    """Bracket on the empirical competitive ratio of one run."""

    online_cost: int
    opt_upper: int  # heuristic cost: an upper bound on OPT
    opt_lower: int  # combinatorial lower bound on OPT

    @property
    def ratio_low(self) -> float:
        """Lower estimate of the ratio (online / OPT-upper-bound)."""
        return self.online_cost / self.opt_upper if self.opt_upper else float("inf")

    @property
    def ratio_high(self) -> float:
        """Upper estimate of the ratio (online / OPT-lower-bound)."""
        return self.online_cost / self.opt_lower if self.opt_lower else float("inf")


def empirical_ratio_exact(online_cost: int, instance: Instance, m: int) -> float:
    """``online_cost / OPT(m)`` via the exact solver (small instances)."""
    # Imported here: repro.opt's dashboard imports the experiments layer,
    # which imports this module.
    from repro.opt.backends import solve_opt

    opt = solve_opt(instance, m).cost
    if opt == 0:
        return 0.0 if online_cost == 0 else float("inf")
    return online_cost / opt


def empirical_ratio_bracket(
    online_cost: int,
    instance: Instance,
    m: int,
    window: int | None = None,
) -> RatioBracket:
    """Bracket the ratio with the heuristic / lower-bound pair."""
    upper = window_planner_cost(instance, m, window)
    lower = opt_lower_bound(instance, m)
    lower = max(lower, 1) if instance.sequence.num_jobs else lower
    return RatioBracket(online_cost=online_cost, opt_upper=max(upper, lower), opt_lower=lower)

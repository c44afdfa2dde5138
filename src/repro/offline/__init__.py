"""Offline machinery.

The exact optimum lives in :mod:`repro.opt` (``solve_opt``), which
replay-validates every optimum it publishes.

- :mod:`repro.offline.bounds` — combinatorial lower bounds on the optimal
  offline cost (any instance size);
- :mod:`repro.offline.heuristic` — a window-planning offline heuristic whose
  cost upper-bounds OPT on instances too large for the exact solver;
- :mod:`repro.offline.aggregate` — the Lemma 4.1 schedule transformation
  (batched schedule → rate-limited schedule on 3x resources);
- :mod:`repro.offline.punctual` — the Lemma 5.1/5.2 early/late → punctual
  schedule transformations.
"""

from repro.offline.bounds import (
    color_lower_bound,
    drop_lower_bound,
    opt_lower_bound,
)
from repro.offline.heuristic import window_planner_schedule, window_planner_cost

__all__ = [
    "color_lower_bound",
    "drop_lower_bound",
    "opt_lower_bound",
    "window_planner_schedule",
    "window_planner_cost",
]

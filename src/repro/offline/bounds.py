"""Combinatorial lower bounds on the optimal offline cost.

For instances too large for the exact solver (:mod:`repro.opt`), the experiments
report ``online_cost / opt_lower_bound`` — an *upper bound* on the true
empirical competitive ratio, i.e. conservative in the right direction.

Two bounds, both from the paper's own analysis:

- **drop bound** (Lemma 3.7): Par-EDF with ``m`` unrestricted executions per
  round achieves the minimum possible drop count of any ``m``-resource
  schedule, so its drop count lower-bounds OPT's *total* cost.
- **color bound** (Lemma 3.1 / Corollary 3.3 argument): for every color with
  ``k`` jobs, OPT either configures it at least once (``>= Delta``) or drops
  all ``k`` jobs, paying at least ``min(k, Delta)``; summing over colors is
  a valid lower bound because reconfigurations and drops are attributable
  per color (every reconfiguration targets exactly one color; initial
  resources are black).
"""

from __future__ import annotations

from repro.core.request import Instance, RequestSequence
from repro.policies.par_edf import par_edf_run


def drop_lower_bound(sequence: RequestSequence, m: int) -> int:
    """Minimum drop count of any schedule with ``m`` resources (Lemma 3.7)."""
    return par_edf_run(sequence, m).drop_count


def color_lower_bound(sequence: RequestSequence, delta: int) -> int:
    """``sum_l min(#jobs of l, Delta)`` — the per-color configure-or-drop bound."""
    return sum(min(count, delta) for count in sequence.jobs_per_color().values())


def opt_lower_bound(instance: Instance, m: int) -> int:
    """Best available lower bound on the optimal offline cost with ``m`` resources.

    The two component bounds cannot in general be added (the color bound may
    already count the same drops the drop bound counts), so we take the max.
    """
    return max(
        drop_lower_bound(instance.sequence, m),
        color_lower_bound(instance.sequence, instance.delta),
        0,
    )

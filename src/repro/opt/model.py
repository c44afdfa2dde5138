"""Formulation layer: compile an instance into the exact-OPT search space.

The offline problem ``[Delta | 1 | D_l | 1]`` over a bounded horizon is
decided by one choice per round ``r < horizon``: the multiset of colors
the ``m`` resources hold after round ``r``'s reconfiguration phase.
:mod:`repro.opt.brute` searches those choices exhaustively, and its
objective matches the ledger exactly::

    cost = Delta * (color copies added, summed over rounds) + |unexecuted jobs|

with round ``-1`` all-black (the paper's initial state).  Two model facts
let the search stay this small:

1. recoloring to black is never useful — it costs ``Delta`` and enables
   nothing — so configurations only ever move between black and job
   colors, a copy is discarded only when another is added in its place,
   and the objective never needs a shedding term;
2. executing a job never costs anything, and once the configurations
   are fixed, greedy earliest-deadline execution on every configured
   copy is optimal — so minimizing over *schedules* equals minimizing
   over configuration sequences, with the executions derived.

:func:`compile_model` interns colors to dense ids (``0`` is reserved for
black) and summarizes each round's arrivals per color as sorted
``(deadline, count)`` pairs.  Unit jobs of one color and deadline are
interchangeable for cost purposes, so the search works on these counts
and never on individual jobs; :mod:`repro.opt.decode` replays the plan
it finds through a real engine.

Jobs arriving at or after the horizon cannot be served in-model; they are
*excluded* (counted in :attr:`OptModel.excluded_jobs`) rather than
charged, and the decoder adds them back when reconciling against the
full-sequence checker.  A job still pending at the horizon counts as a
drop.  With the default horizon (the sequence horizon, i.e. past every
deadline) nothing is excluded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from repro.core.job import Color, color_sort_key
from repro.core.request import Instance

__all__ = ["OptModel", "Solution", "compile_model"]


@dataclass(frozen=True)
class OptModel:
    """A compiled instance: what the search and the decoder read.

    ``colors[i]`` is the native color with interned id ``i + 1``;
    ``arrivals[r][cid]`` is a sorted ``((deadline, count), ...)`` summary
    of round ``r``'s request; ``num_jobs`` counts the in-model jobs (those
    arriving before the horizon).
    """

    instance: Instance
    m: int
    horizon: int
    delta: int | float
    colors: tuple[Color, ...]
    num_jobs: int
    arrivals: Mapping[int, Mapping[int, tuple[tuple[int, int], ...]]]
    excluded_jobs: int

    def color_of(self, cid: int) -> Color:
        """Native color of an interned id (ids start at 1; 0 is black)."""
        return self.colors[cid - 1]


@dataclass(frozen=True)
class Solution:
    """What the search returns: the optimum and how to realize it.

    ``configs`` is one multiset of native colors per round — the
    configuration held *after* that round's reconfiguration phase.  The
    decoder replays these through a real engine (which re-derives the
    executions greedily, provably without cost loss) and demands the
    replayed total equal ``cost`` exactly.  ``states`` is the search's
    memo size.
    """

    cost: int | float
    configs: tuple[tuple[Color, ...], ...]
    backend: str
    states: int


def compile_model(
    instance: Instance, m: int, horizon: int | None = None
) -> OptModel:
    """Compile ``instance`` for ``m`` offline resources over ``horizon`` rounds.

    The horizon defaults to the sequence horizon (one past the last
    deadline, so nothing is truncated) and is capped there — extra empty
    rounds cannot lower the optimum.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    sequence = instance.sequence
    if horizon is None:
        horizon = sequence.horizon
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    horizon = min(horizon, sequence.horizon)

    all_colors = tuple(sorted(sequence.colors(), key=color_sort_key))
    cid_of = {color: i + 1 for i, color in enumerate(all_colors)}

    per_round: dict[int, dict[int, dict[int, int]]] = defaultdict(
        lambda: defaultdict(dict)
    )
    num_jobs = excluded = 0
    for job in sequence.jobs():
        if job.arrival >= horizon:
            excluded += 1
            continue
        num_jobs += 1
        bucket = per_round[job.arrival][cid_of[job.color]]
        bucket[job.deadline] = bucket.get(job.deadline, 0) + 1
    arrivals = {
        rnd: {
            cid: tuple(sorted(counts.items()))
            for cid, counts in by_color.items()
        }
        for rnd, by_color in per_round.items()
    }

    return OptModel(
        instance=instance,
        m=m,
        horizon=horizon,
        delta=instance.delta,
        colors=all_colors,
        num_jobs=num_jobs,
        arrivals=arrivals,
        excluded_jobs=excluded,
    )

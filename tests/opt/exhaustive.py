"""Exhaustive oracle for the exact-OPT search in :mod:`repro.opt.brute`.

Enumerates, by depth-first search with cost pruning, *every* per-round,
per-resource coloring choice (keep, or switch to any color of the instance)
and greedily executes earliest-deadline jobs under each.  No memoization, no
multiset abstraction, no feasibility cleverness — deliberately the dumbest
correct implementation, kept independent of the memoized DP so the two can
be compared differentially on micro instances (see
tests/properties/test_brute_force.py and tests/opt/test_properties.py).

Exponential in ``(colors + 1) ** (m * horizon)``; only use on instances with
a handful of rounds.
"""

from __future__ import annotations

import itertools

from repro.core.job import BLACK, Color, Job, color_sort_key
from repro.core.request import Instance


def brute_force_cost(instance: Instance, m: int, limit: int = 5_000_000) -> int:
    """Exact optimal cost by exhaustive search (micro instances only)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    sequence = instance.sequence
    delta = instance.delta
    horizon = sequence.horizon
    colors = sorted(sequence.colors(), key=color_sort_key)

    choice_count = (len(colors) + 1) ** (m * horizon) if horizon else 1
    if choice_count > limit:
        raise ValueError(
            f"search space {choice_count} exceeds limit {limit}; "
            "brute force is for micro instances"
        )

    arrivals: dict[int, list[Job]] = {}
    for request in sequence:
        if len(request):
            arrivals[request.round] = list(request.jobs)

    best = [float("inf")]
    choices = [None] + colors  # None = keep current color

    def execute(pending: list[Job], assignment: tuple[Color, ...]) -> list[Job]:
        remaining = list(pending)
        for color in assignment:
            if color is BLACK:
                continue
            pick = None
            for job in remaining:
                if job.color == color and (pick is None or job.deadline < pick.deadline):
                    pick = job
            if pick is not None:
                remaining.remove(pick)
        return remaining

    def dfs(rnd: int, assignment: tuple[Color, ...], pending: list[Job], cost: int) -> None:
        if cost >= best[0]:
            return
        if rnd == horizon:
            best[0] = min(best[0], cost + len(pending))
            return
        kept = [job for job in pending if job.deadline > rnd]
        cost += len(pending) - len(kept)
        if cost >= best[0]:
            return
        kept = kept + arrivals.get(rnd, [])
        for switch in itertools.product(choices, repeat=m):
            new_assignment = tuple(
                old if pick is None else pick
                for old, pick in zip(assignment, switch)
            )
            changes = sum(
                1
                for old, pick in zip(assignment, switch)
                if pick is not None and pick != old
            )
            remaining = execute(kept, new_assignment)
            dfs(rnd + 1, new_assignment, remaining, cost + changes * delta)

    dfs(0, (BLACK,) * m, [], 0)
    return int(best[0])

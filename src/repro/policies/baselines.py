"""Baseline policies used by the experiments.

None of these come from the paper's solution; they are the natural
strawmen the introduction argues against, and they anchor the experiment
tables:

- :class:`StaticPartitionPolicy` — dedicate resources to colors on first
  sight and never reconfigure again (pure underutilization end of the
  spectrum);
- :class:`ClassicLRUPolicy` — textbook LRU over colors keyed by last
  arrival, no counter machinery (caches on every touch, pure thrashing end);
- :class:`GreedyUtilizationPolicy` — always configure the nonidle colors
  with the most pending work (throughput-greedy, ignores both recency and
  deadlines).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.job import Color, color_sort_key
from repro.core.request import Request
from repro.core.simulator import Policy


class StaticPartitionPolicy(Policy):
    """Assign each location to a color on first arrival; never reconfigure.

    Locations are handed out round-robin to colors in order of first
    appearance.  Once all locations are taken, later colors get nothing.
    An optional ``allocation`` prescribes the assignment up front (list of
    colors, one per location, as an operator with workload knowledge would).
    """

    def __init__(self, allocation: Sequence[Color] | None = None):
        self._allocation = list(allocation) if allocation is not None else None
        self._assigned: list[Color] = []
        self._seen: set[Color] = set()

    def bind(self, sim) -> None:
        super().bind(sim)
        if self._allocation is not None:
            if len(self._allocation) > sim.n:
                raise ValueError(
                    f"allocation of {len(self._allocation)} colors exceeds n={sim.n}"
                )
            self._assigned = list(self._allocation)

    def on_arrival_phase(self, rnd: int, request: Request) -> None:
        if self._allocation is not None:
            return
        for job in request:
            if job.color not in self._seen:
                self._seen.add(job.color)
                if len(self._assigned) < self.sim.n:
                    self._assigned.append(job.color)

    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        return list(self._assigned)


class ClassicLRUPolicy(Policy):
    """Textbook LRU over colors: cache the ``n`` most recently requested.

    The timestamp of a color is the last round in which one of its jobs
    arrived.  Every arrival refreshes the stamp, so a trickle of jobs of many
    colors evicts constantly — the thrashing the Delta-counter machinery of
    the paper exists to avoid.
    """

    def __init__(self) -> None:
        self._stamp: dict[Color, int] = {}

    def on_arrival_phase(self, rnd: int, request: Request) -> None:
        for job in request:
            self._stamp[job.color] = rnd

    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        ranked = sorted(
            self._stamp,
            key=lambda c: (-self._stamp[c], color_sort_key(c)),
        )
        return ranked[: self.sim.n]


class GreedyUtilizationPolicy(Policy):
    """Configure the nonidle colors with the largest pending backlog.

    Allocates locations proportionally to backlog (largest remainder), so a
    color with many pending jobs gets several locations.  Maximizes
    instantaneous throughput and nothing else.
    """

    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        backlog = [
            (self.sim.pending.pending_count(color), color)
            for color in self.sim.pending.nonidle_colors()
        ]
        if not backlog:
            return []
        backlog.sort(key=lambda item: (-item[0], color_sort_key(item[1])))
        n = self.sim.n
        desired: list[Color] = []
        for count, color in backlog:
            if len(desired) >= n:
                break
            copies = min(count, n - len(desired))
            desired.extend([color] * copies)
        return desired

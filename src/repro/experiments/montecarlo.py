"""Seed-replication utilities: mean, spread, and confidence intervals.

The experiment tables report per-seed rows; these helpers aggregate a
metric across many seeds into ``mean ± half-width`` summaries (normal
approximation) so sweep studies can report uncertainty instead of single
draws.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Replication:
    """Aggregate of one metric across seeds."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.values)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.values) if self.n > 1 else 0.0

    def ci_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the normal-approximation confidence interval."""
        if self.n < 2:
            return 0.0
        return z * self.stdev / math.sqrt(self.n)

    def summary(self, z: float = 1.96) -> str:
        return f"{self.mean:.3f} ± {self.ci_halfwidth(z):.3f} (n={self.n})"

    def __contains__(self, value: float) -> bool:
        """True if ``value`` lies inside the 95% interval."""
        half = self.ci_halfwidth()
        return self.mean - half <= value <= self.mean + half


def replicate(
    metric: Callable[[int], float],
    seeds: Iterable[int],
) -> Replication:
    """Evaluate ``metric(seed)`` across seeds and aggregate."""
    values = tuple(float(metric(seed)) for seed in seeds)
    if not values:
        raise ValueError("replicate needs at least one seed")
    return Replication(values)


"""Cost accounting.

The objective is the sum of reconfiguration costs (``Delta`` per recolored
resource) and drop costs (1 per dropped job).  The ledger records both, with
per-color and per-round breakdowns so the analysis layer can verify the
paper's amortized bounds (e.g. Lemma 3.3 bounds reconfiguration cost by
``4 * numEpochs * Delta``) without re-simulating.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.job import Color


@dataclass
class CostLedger:
    """Accumulates reconfiguration and drop costs during a run."""

    delta: int | float
    reconfig_count: int = 0
    drop_count: int = 0
    reconfigs_per_color: Counter = field(default_factory=Counter)
    drops_per_color: Counter = field(default_factory=Counter)
    reconfigs_per_round: Counter = field(default_factory=Counter)
    drops_per_round: Counter = field(default_factory=Counter)

    def charge_reconfig(self, rnd: int, color: Color) -> None:
        """Charge one reconfiguration (to ``color``) in round ``rnd``."""
        self.reconfig_count += 1
        self.reconfigs_per_color[color] += 1
        self.reconfigs_per_round[rnd] += 1

    def charge_drop(self, rnd: int, color: Color, count: int = 1) -> None:
        """Charge ``count`` unit drop costs for color ``color`` in ``rnd``."""
        if count < 0:
            raise ValueError("drop count must be nonnegative")
        self.charge_drops(rnd, (color,) * count)

    def charge_drops(self, rnd: int, colors: Sequence[Color]) -> None:
        """Charge one unit drop cost per entry of ``colors`` in ``rnd``.

        The simulator passes one color per dropped job, in drop order; the
        per-color counter sees them in that order, exactly as one
        :meth:`charge_drop` per job would.
        """
        count = len(colors)
        self.drop_count += count
        self.drops_per_color.update(colors)
        self.drops_per_round[rnd] += count

    @property
    def reconfig_cost(self) -> int:
        return self.reconfig_count * self.delta

    @property
    def drop_cost(self) -> int:
        return self.drop_count

    @property
    def total_cost(self) -> int:
        return self.reconfig_cost + self.drop_cost

    def merged(self, other: "CostLedger") -> "CostLedger":
        """Combine two ledgers (e.g. from schedule splits); Deltas must match."""
        if self.delta != other.delta:
            raise ValueError("cannot merge ledgers with different Delta")
        out = CostLedger(self.delta)
        out.reconfig_count = self.reconfig_count + other.reconfig_count
        out.drop_count = self.drop_count + other.drop_count
        out.reconfigs_per_color = self.reconfigs_per_color + other.reconfigs_per_color
        out.drops_per_color = self.drops_per_color + other.drops_per_color
        out.reconfigs_per_round = self.reconfigs_per_round + other.reconfigs_per_round
        out.drops_per_round = self.drops_per_round + other.drops_per_round
        return out

    def round_delta(self, rnd: int) -> dict[str, int]:
        """Round ``rnd``'s drops and reconfigurations with their costs.

        The one source for the run trace's ``round`` spans and for
        :func:`repro.core.debug.narrate`'s ``ledger:`` lines, so the two
        can never disagree about per-round costs.
        """
        drops = self.drops_per_round.get(rnd, 0)
        reconfigs = self.reconfigs_per_round.get(rnd, 0)
        return {
            "drops": drops,
            "drop_cost": drops,
            "reconfigs": reconfigs,
            "reconfig_cost": reconfigs * self.delta,
        }

    def summary(self) -> dict[str, int]:
        return {
            "reconfig_count": self.reconfig_count,
            "reconfig_cost": self.reconfig_cost,
            "drop_count": self.drop_count,
            "drop_cost": self.drop_cost,
            "total_cost": self.total_cost,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostLedger(delta={self.delta}, reconfigs={self.reconfig_count}, "
            f"drops={self.drop_count}, total={self.total_cost})"
        )

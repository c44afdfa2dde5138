"""The paper's ``[reconfig | drop | delay | batch]`` problem taxonomy.

Section 2 introduces a four-field notation for reconfigurable resource
scheduling problems (adopted from the companion paper [14]):

- **reconfig** — the reconfiguration cost structure; here always a fixed
  cost ``Delta``;
- **drop** — the drop cost structure; here always unit (``1``), variable
  per-color costs (``c_l``) being the companion paper's variant;
- **delay** — the delay-bound structure; ``D_l`` (per-color) here, uniform
  ``D`` in the companion variant;
- **batch** — the arrival constraint: ``1`` (arbitrary rounds) or ``D_l``
  (color-``l`` arrivals restricted to multiples of ``D_l``), optionally
  rate-limited (at most ``D_l`` jobs per batch).

:class:`ProblemClass` is the structured form; :func:`classify` derives the
tightest class an instance belongs to, and :func:`parse` reads the bracket
notation back.  The experiment and reduction layers use these to sanity-check
that each algorithm only ever sees the problem class its theorem covers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from repro.core.request import Instance


class BatchField(Enum):
    """The paper's batch field values."""

    ARBITRARY = "1"
    BATCHED = "D_l"
    RATE_LIMITED = "D_l (rate-limited)"


@dataclass(frozen=True)
class ProblemClass:
    """A point in the paper's problem taxonomy."""

    delta: int | float
    batch: BatchField
    power_of_two: bool

    def notation(self) -> str:
        return f"[{self.delta} | 1 | D_l | {self.batch.value}]"

    @property
    def theorem(self) -> str:
        """Which of the paper's theorems covers this class."""
        if self.batch is BatchField.RATE_LIMITED and self.power_of_two:
            return "Theorem 1 (DeltaLRU-EDF)"
        if self.batch is BatchField.BATCHED and self.power_of_two:
            return "Theorem 2 (Distribute)"
        return "Theorem 3 (VarBatch)"

    def solver_name(self) -> str:
        if self.batch is BatchField.RATE_LIMITED and self.power_of_two:
            return "solve_rate_limited"
        if self.batch is BatchField.BATCHED and self.power_of_two:
            return "solve_batched"
        return "solve_online"


def classify(instance: Instance) -> ProblemClass:
    """The tightest problem class an instance belongs to."""
    sequence = instance.sequence
    if sequence.is_rate_limited():
        batch = BatchField.RATE_LIMITED
    elif sequence.is_batched():
        batch = BatchField.BATCHED
    else:
        batch = BatchField.ARBITRARY
    return ProblemClass(
        delta=instance.delta,
        batch=batch,
        power_of_two=sequence.has_power_of_two_bounds(),
    )


_NOTATION_RE = re.compile(
    r"^\[\s*(?P<delta>[0-9.]+)\s*\|\s*1\s*\|\s*D_l\s*\|\s*"
    r"(?P<batch>1|D_l( \(rate-limited\))?)\s*\]$"
)


def parse(notation: str) -> ProblemClass:
    """Parse a ``[Delta | 1 | D_l | batch]`` string.

    The power-of-two flag is not expressible in the bracket form; parsed
    classes default it to True (the setting of Theorems 1 and 2).
    """
    match = _NOTATION_RE.match(notation.strip())
    if not match:
        raise ValueError(f"not a recognized problem notation: {notation!r}")
    raw_delta = match.group("delta")
    delta: int | float = float(raw_delta) if "." in raw_delta else int(raw_delta)
    batch_text = match.group("batch")
    batch = {
        "1": BatchField.ARBITRARY,
        "D_l": BatchField.BATCHED,
        "D_l (rate-limited)": BatchField.RATE_LIMITED,
    }[batch_text]
    return ProblemClass(delta=delta, batch=batch, power_of_two=True)


def recommended_solver(instance: Instance):
    """Return the tightest applicable solver callable for an instance."""
    from repro.reductions import pipeline

    return getattr(pipeline, classify(instance).solver_name())

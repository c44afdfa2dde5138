"""Engine registry: select a round engine by name.

Two engines share one behavioural contract (every digest the
:mod:`repro.core.digest` authority computes must be byte-identical
across them):

- ``reference`` — the historical full-scan object engine
  (:class:`~repro.core.simulator.Simulator` with ``incremental=False``),
  kept as the oracle;
- ``incremental`` — the object engine's hot path: index-diffed
  reconfiguration, sparse execution (``incremental=True``).

The CLI, the perf harness, and the serve layer resolve engines through
:func:`resolve_engine`, which is also the one place that maps the
``auto`` alias (kept for existing ``--engine auto`` command lines) to
``incremental``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.request import Instance
from repro.core.simulator import Policy, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.recorder import Recorder

__all__ = [
    "ENGINES",
    "engine_of",
    "make_simulator",
    "resolve_engine",
]

#: Every selectable engine, in documentation order.
ENGINES: tuple[str, ...] = ("reference", "incremental")


def resolve_engine(engine: str) -> str:
    """Normalize an engine selection to a registry name.

    ``auto`` resolves to ``incremental``, the fastest engine at every
    measured resource count; any other name must be in :data:`ENGINES`.
    """
    if engine == "auto":
        return "incremental"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}"
        )
    return engine


def make_simulator(
    instance: Instance,
    policy: Policy,
    n: int,
    *,
    engine: str = "incremental",
    speed: int = 1,
    record_events: bool = True,
    telemetry: "Recorder | None" = None,
) -> Simulator:
    """Build the named engine's simulator over ``instance``."""
    return Simulator(
        instance,
        policy,
        n,
        speed=speed,
        record_events=record_events,
        incremental=resolve_engine(engine) == "incremental",
        telemetry=telemetry,
    )


def engine_of(sim: Simulator) -> str:
    """The registry name of a live simulator (for labels and trace headers)."""
    return "incremental" if sim.incremental else "reference"

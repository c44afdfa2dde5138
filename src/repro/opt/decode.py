"""Solution decoder: replay an optimum through machinery the solver never touches.

The search only emits *per-round configuration multisets* plus a claimed
cost.  That is deliberate: given fixed configurations, greedy
earliest-deadline execution per configured location is optimal (the fact
the search already relies on), and at an optimum the per-location change
count equals the minimum multiset-diff realization cost — so replaying
just the configurations through a real engine must land on exactly the
claimed cost.  The replay is therefore a *check*, not a convenience:

1. a :class:`ScriptedPolicy` replays the plan through the engine registry
   (``reference`` by default — the historical full-scan engine);
2. the replayed total must equal the claimed optimum exactly;
3. the resulting explicit schedule must pass
   :func:`repro.core.schedule.validate_schedule` — the independent
   checker that knows nothing about any solver or engine — and the
   checker's recomputed ledger must reconcile (claimed cost plus any
   jobs the horizon excluded);
4. the schedule is digested with :func:`repro.core.digest.schedule_digests`,
   the engine-free cost-extraction authority, so two solvers that find
   *different* optimal schedules still publish comparable digests.

Any mismatch raises :class:`OptValidationError` — a solver bug can never
publish a cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.digest import result_digest, schedule_digests
from repro.core.engine import make_simulator
from repro.core.job import Color
from repro.core.request import Instance
from repro.core.schedule import Schedule, ScheduleError, validate_schedule
from repro.core.simulator import Policy
from repro.opt.model import OptModel, Solution

__all__ = ["OptResult", "OptValidationError", "ScriptedPolicy", "decode_solution"]


class OptValidationError(RuntimeError):
    """The decoded optimum failed replay or the independent checker."""


class ScriptedPolicy(Policy):
    """Replays a fixed per-round configuration plan, verbatim.

    The engine owns execution (greedy earliest-deadline per configured
    location), so a plan plus this policy fully determines a run.  Rounds
    past the plan request the empty configuration; the engine's
    reconfigure-to semantics make repeating a round's plan across
    mini-rounds free, though optima are always replayed at speed 1.
    """

    def __init__(self, configs: Iterable[Iterable[Color]]):
        self._configs: tuple[tuple[Color, ...], ...] = tuple(
            tuple(c) for c in configs
        )

    def desired_configuration(self, rnd: int, mini: int) -> tuple[Color, ...]:
        if rnd < len(self._configs):
            return self._configs[rnd]
        return ()


@dataclass
class OptResult:
    """A validated exact optimum.

    ``cost`` is the in-model optimum (what the ratio dashboard divides
    by); ``digests`` are the engine-free schedule digests of the decoded
    optimal schedule; ``replay_digest`` is the full run digest of the
    validating replay.  ``validated`` is always True on a constructed
    result — construction *is* the validation.
    """

    instance: Instance
    m: int
    horizon: int
    backend: str
    cost: int | float
    configs: tuple[tuple[Color, ...], ...]
    schedule: Schedule
    reconfig_count: int
    executed: int
    unserved: int
    excluded_jobs: int
    states: int
    digests: dict[str, str]
    replay_digest: str
    engine: str
    validated: bool = True

    @property
    def reconfig_cost(self) -> int | float:
        return self.reconfig_count * self.instance.delta

    @property
    def drop_cost(self) -> int | float:
        return self.cost - self.reconfig_cost


def decode_solution(
    model: OptModel,
    solution: Solution,
    engine: str = "reference",
) -> OptResult:
    """Replay, check, and digest a search's solution (see module docstring)."""
    instance = model.instance
    sequence = instance.sequence
    policy = ScriptedPolicy(solution.configs)
    sim = make_simulator(instance, policy, model.m, engine=engine)
    run = sim.run(horizon=model.horizon)

    unserved = model.num_jobs - len(run.executed_uids)
    replay_cost = run.ledger.reconfig_cost + unserved
    if replay_cost != solution.cost:
        raise OptValidationError(
            f"{solution.backend} claimed OPT={solution.cost} on "
            f"{instance.name!r} (m={model.m}, horizon={model.horizon}) but "
            f"replaying its configurations costs {replay_cost} "
            f"({run.ledger.reconfig_count} reconfigs, {unserved} unserved)"
        )

    try:
        checker_ledger = validate_schedule(
            run.schedule, sequence, instance.delta
        )
    except ScheduleError as exc:
        raise OptValidationError(
            f"decoded OPT schedule for {instance.name!r} rejected by the "
            f"independent checker: {exc}"
        ) from exc
    assert checker_ledger is not None
    expected_total = solution.cost + model.excluded_jobs
    if checker_ledger.total_cost != expected_total:
        raise OptValidationError(
            f"independent checker recomputed {checker_ledger.total_cost} "
            f"for {instance.name!r}, expected {expected_total} "
            f"(OPT {solution.cost} + {model.excluded_jobs} excluded)"
        )

    return OptResult(
        instance=instance,
        m=model.m,
        horizon=model.horizon,
        backend=solution.backend,
        cost=solution.cost,
        configs=solution.configs,
        schedule=run.schedule,
        reconfig_count=run.ledger.reconfig_count,
        executed=len(run.executed_uids),
        unserved=unserved,
        excluded_jobs=model.excluded_jobs,
        states=solution.states,
        digests=schedule_digests(run.schedule, sequence, instance.delta),
        replay_digest=result_digest(run),
        engine=engine,
    )

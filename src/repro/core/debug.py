"""Round-by-round narration of a recorded run.

``narrate`` turns an event log into human-readable phase-by-phase text —
the fastest way to understand *why* a policy did something on a small
instance, and the format bug reports should include.

Example output::

    == round 4 ==
      drop:    2 jobs of color 1 (deadline reached)
      arrive:  3 jobs (color 0 x3, bound 4)
      config:  loc0: 1 -> 0, loc1: 1 -> 0
      execute: loc0 -> job 17 (color 0), loc1 -> job 18 (color 0)
      ledger:  drops=2 (cost 2), reconfigs=2 (cost 8)

The ``ledger`` line draws its numbers from
:meth:`repro.core.ledger.CostLedger.round_delta` — the same helper the
run trace's ``round`` spans use — so narration and traces can never
disagree about per-round costs.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.events import (
    ArrivalEvent,
    DropEvent,
    ExecutionEvent,
    ReconfigEvent,
)
from repro.core.simulator import SimulationResult


def narrate(
    result: SimulationResult,
    start: int = 0,
    end: int | None = None,
    include_empty: bool = False,
) -> str:
    """Render the run's events for rounds ``[start, end)`` as text."""
    if len(result.events) == 0:
        return "(no events recorded — run with record_events=True)"
    end = result.instance.horizon if end is None else end
    by_round: dict[int, list] = {}
    for event in result.events:
        by_round.setdefault(event.round, []).append(event)

    lines: list[str] = []
    for rnd in range(start, end):
        events = by_round.get(rnd, [])
        if not events and not include_empty:
            continue
        lines.append(f"== round {rnd} ==")
        lines.extend(_narrate_round(events))
        delta = result.ledger.round_delta(rnd)
        if delta["drops"] or delta["reconfigs"]:
            lines.append(
                f"  ledger:  drops={delta['drops']} "
                f"(cost {delta['drop_cost']}), "
                f"reconfigs={delta['reconfigs']} "
                f"(cost {delta['reconfig_cost']})"
            )
    if not lines:
        return "(no activity in the requested window)"
    return "\n".join(lines)


def _narrate_round(events: Iterable) -> list[str]:
    drops = [e for e in events if isinstance(e, DropEvent)]
    arrivals = [e for e in events if isinstance(e, ArrivalEvent)]
    reconfigs = [e for e in events if isinstance(e, ReconfigEvent)]
    executions = [e for e in events if isinstance(e, ExecutionEvent)]

    lines: list[str] = []
    if drops:
        per_color = Counter(e.job.color for e in drops)
        parts = ", ".join(f"color {c!r} x{n}" for c, n in sorted(
            per_color.items(), key=lambda kv: repr(kv[0])))
        lines.append(f"  drop:    {len(drops)} job(s) ({parts})")
    if arrivals:
        per_color = Counter(
            (e.job.color, e.job.delay_bound) for e in arrivals
        )
        parts = ", ".join(
            f"color {c!r} x{n} (bound {b})"
            for (c, b), n in sorted(per_color.items(), key=lambda kv: repr(kv[0]))
        )
        lines.append(f"  arrive:  {len(arrivals)} job(s) ({parts})")
    if reconfigs:
        minis = sorted({e.mini_round for e in reconfigs})
        for mini in minis:
            parts = ", ".join(
                f"loc{e.location}: {e.old_color!r} -> {e.new_color!r}"
                for e in reconfigs
                if e.mini_round == mini
            )
            tag = f" (mini {mini})" if len(minis) > 1 else ""
            lines.append(f"  config:  {parts}{tag}")
    if executions:
        minis = sorted({e.mini_round for e in executions})
        for mini in minis:
            parts = ", ".join(
                f"loc{e.location} -> job {e.job.uid} (color {e.job.color!r})"
                for e in executions
                if e.mini_round == mini
            )
            tag = f" (mini {mini})" if len(minis) > 1 else ""
            lines.append(f"  execute: {parts}{tag}")
    if not lines:
        lines.append("  (idle)")
    return lines

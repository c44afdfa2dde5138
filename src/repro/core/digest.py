"""Canonical run digests: the bit-identity contract in hashable form.

Two runs are *bit-identical* when everything the contract covers agrees:
the ledger (totals and per-color breakdowns), the explicit schedule, the
event log, and the executed/dropped uid sets.  This module turns that
tuple into SHA-256 digests.  It is the single implementation behind

- the incremental-vs-reference engine check (tier-1's engine-equivalence
  suite and perfbench's ``solve-datacenter`` workload),
- the telemetry never-affects-digests check, and
- the serve determinism contract (a live replay through
  :class:`~repro.core.live.LiveSequence` and the server must reproduce
  the offline digests exactly; :mod:`repro.serve`).

Digests are hash-seed and process independent: every container is
sorted or canonically ordered before hashing.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ledger import CostLedger
    from repro.core.schedule import Schedule
    from repro.core.simulator import SimulationResult

__all__ = [
    "component_digests",
    "result_digest",
    "result_digests",
    "schedule_digests",
]


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


def _sha(obj: object) -> str:
    return hashlib.sha256(_dumps(obj).encode()).hexdigest()


def _per_color(counter) -> dict[str, int]:
    return {
        str(k): v
        for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))
    }


def _event_chunks(events: Iterable) -> Iterator[bytes]:
    """The JSON list of the events' ``repr`` strings, one chunk per batch.

    The chunks concatenate to ``json.dumps([repr(e) for e in events])``.
    An :class:`~repro.core.events.EventLog` formats each batch's reprs
    from its fields; any other iterable of events is logged first.
    """
    log = events
    if not isinstance(log, EventLog):
        log = EventLog()
        log.extend(events)
    yield b"["
    sep = b""
    for reprs in log.reprs():
        # ``json.dumps`` of a list of strings, minus its brackets.
        yield sep + json.dumps(reprs)[1:-1].encode()
        sep = b", "
    yield b"]"


def component_digests(
    ledger: "CostLedger",
    schedule: "Schedule",
    events: Iterable,
    executed_uids: Iterable[int],
    dropped_uids: Iterable[int],
) -> dict[str, str]:
    """Per-component digests plus the combined ``run`` digest.

    The components let a mismatch report say *what* diverged (costs vs
    schedule vs event stream) without shipping the full artifacts over
    the wire — this is the shape the serve ``stats`` frame returns.

    Each digest is the SHA-256 of ``json.dumps(obj, sort_keys=True,
    default=str)``: ``ledger`` of the ledger summary with the per-color
    counts, ``schedule`` of :meth:`Schedule.to_json
    <repro.core.schedule.Schedule.to_json>`, ``events`` of the list of
    event ``repr`` strings, and ``run`` of one object holding all of
    them plus the sorted ``executed`` and ``dropped`` uid lists.  The
    event list is hashed in one streamed pass that feeds ``events`` and
    ``run`` together, so no blob of the whole run is ever built.
    """
    counts = {
        "ledger": ledger.summary(),
        "reconfigs_per_color": _per_color(ledger.reconfigs_per_color),
        "drops_per_color": _per_color(ledger.drops_per_color),
    }
    parts = {
        **{key: _dumps(value) for key, value in counts.items()},
        "schedule": _dumps(schedule.to_json()),
        "events": None,  # streamed
        "executed": _dumps(sorted(executed_uids)),
        "dropped": _dumps(sorted(dropped_uids)),
    }
    events_sha = hashlib.sha256()
    run = hashlib.sha256()
    sep = "{"
    for key in sorted(parts):
        run.update(f"{sep}{json.dumps(key)}: ".encode())
        sep = ", "
        if key == "events":
            for chunk in _event_chunks(events):
                events_sha.update(chunk)
                run.update(chunk)
        else:
            run.update(parts[key].encode())
    run.update(b"}")
    return {
        "ledger": _sha(counts),
        "schedule": hashlib.sha256(parts["schedule"].encode()).hexdigest(),
        "events": events_sha.hexdigest(),
        "run": run.hexdigest(),
    }


def schedule_digests(
    schedule: "Schedule",
    sequence,
    delta: int | float,
) -> dict[str, str]:
    """Component digests of an explicit schedule, with no simulator run.

    The ledger is recomputed from the schedule itself
    (:meth:`~repro.core.schedule.Schedule.ledger`), executed uids come from
    the schedule, dropped uids are every other job of ``sequence``, and the
    event stream is empty — so any two producers that agree on the schedule
    agree on these digests, regardless of which engine (or offline solver)
    emitted it.  This is the cost-extraction authority the ``repro.opt``
    subsystem hashes decoded optima with.
    """
    ledger = schedule.ledger(sequence, delta)
    executed = schedule.executed_uids()
    dropped = [job.uid for job in sequence.jobs() if job.uid not in executed]
    return component_digests(ledger, schedule, (), executed, dropped)


def result_digest(result: "SimulationResult") -> str:
    """The ``run`` digest of a :class:`~repro.core.simulator.SimulationResult`."""
    return result_digests(result)["run"]


def result_digests(result: "SimulationResult") -> dict[str, str]:
    """Component digests of a :class:`~repro.core.simulator.SimulationResult`."""
    return component_digests(
        result.ledger,
        result.schedule,
        result.events,
        result.executed_uids,
        result.dropped_uids,
    )

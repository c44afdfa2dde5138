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
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.events import EventLog
    from repro.core.ledger import CostLedger
    from repro.core.schedule import Schedule
    from repro.core.simulator import SimulationResult

__all__ = [
    "component_digests",
    "digest_payload",
    "result_digest",
    "result_digests",
    "run_digest",
    "schedule_digests",
]


def _sha(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _per_color(counter) -> dict[str, int]:
    return {
        str(k): v
        for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))
    }


def digest_payload(
    ledger: "CostLedger",
    schedule: "Schedule",
    events: Iterable,
    executed_uids: Iterable[int],
    dropped_uids: Iterable[int],
) -> dict:
    """Everything the bit-identity contract covers, canonically ordered."""
    return {
        "ledger": ledger.summary(),
        "reconfigs_per_color": _per_color(ledger.reconfigs_per_color),
        "drops_per_color": _per_color(ledger.drops_per_color),
        "schedule": schedule.to_json(),
        "events": [repr(e) for e in events],
        "executed": sorted(executed_uids),
        "dropped": sorted(dropped_uids),
    }


def run_digest(
    ledger: "CostLedger",
    schedule: "Schedule",
    events: Iterable,
    executed_uids: Iterable[int],
    dropped_uids: Iterable[int],
) -> str:
    """SHA-256 over everything the bit-identity contract covers."""
    return _sha(digest_payload(ledger, schedule, events, executed_uids, dropped_uids))


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
    """
    payload = digest_payload(ledger, schedule, events, executed_uids, dropped_uids)
    return {
        "ledger": _sha({
            "ledger": payload["ledger"],
            "reconfigs_per_color": payload["reconfigs_per_color"],
            "drops_per_color": payload["drops_per_color"],
        }),
        "schedule": _sha(payload["schedule"]),
        "events": _sha(payload["events"]),
        "run": _sha(payload),
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
    """SHA-256 of a :class:`~repro.core.simulator.SimulationResult`."""
    return run_digest(
        result.ledger,
        result.schedule,
        result.events,
        result.executed_uids,
        result.dropped_uids,
    )


def result_digests(result: "SimulationResult") -> dict[str, str]:
    """Component digests of a :class:`~repro.core.simulator.SimulationResult`."""
    return component_digests(
        result.ledger,
        result.schedule,
        result.events,
        result.executed_uids,
        result.dropped_uids,
    )

"""Typed event log.

Every phase action of a run can be recorded as an event.  The log is what
the analysis layer (epochs, super-epochs, lemma checks) consumes, and what
``Schedule.from_events`` uses to lift a simulation into an explicit,
independently-verifiable schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.job import Color, Job


@dataclass(frozen=True, slots=True)
class Event:
    """Base event: every event happens in a round (and a mini-round)."""

    round: int
    mini_round: int


@dataclass(frozen=True, slots=True)
class ArrivalEvent(Event):
    job: Job


@dataclass(frozen=True, slots=True)
class DropEvent(Event):
    job: Job


@dataclass(frozen=True, slots=True)
class ReconfigEvent(Event):
    location: int
    old_color: Color
    new_color: Color


@dataclass(frozen=True, slots=True)
class ExecutionEvent(Event):
    location: int
    job: Job


class EventLog:
    """Append-only event record with typed views.

    Recording is optional (the simulator takes ``record_events=False`` for
    benchmark runs); when enabled it costs one list append per action.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: list[Event] = []

    def append(self, event: Event) -> None:
        if self.enabled:
            self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Append ``events`` in order (one call for a whole phase)."""
        if self.enabled:
            self._events.extend(events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def since(self, index: int) -> list[Event]:
        """Events appended at or after position ``index``.

        ``log.since(mark)`` with ``mark = len(log)`` taken before an
        operation is the O(slice) way to ask "what happened during it" —
        the serve layer uses this to turn one round's events into a
        result frame without rescanning the whole log.
        """
        return self._events[index:]

    def arrivals(self) -> list[ArrivalEvent]:
        return [e for e in self._events if isinstance(e, ArrivalEvent)]

    def drops(self) -> list[DropEvent]:
        return [e for e in self._events if isinstance(e, DropEvent)]

    def reconfigs(self) -> list[ReconfigEvent]:
        return [e for e in self._events if isinstance(e, ReconfigEvent)]

    def executions(self) -> list[ExecutionEvent]:
        return [e for e in self._events if isinstance(e, ExecutionEvent)]

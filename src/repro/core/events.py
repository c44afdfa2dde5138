"""Typed event log.

Every phase action of a run can be recorded as an event.  The log is what
:func:`~repro.core.schedule.schedule_from_events` lifts into an explicit,
independently-verifiable schedule, what :mod:`repro.core.debug` narrates,
and what the run digests (:mod:`repro.core.digest`) hash as the event
stream.

The log does not keep the event objects.  It keeps one flat tuple of
plain fields per recorded *batch* -- a round's drops, a round's arrivals,
or one mini-round's reconfigurations or executions -- laid out as
``(kind, round, mini_round, *fields)``, with five fields per job
(``color, arrival, delay_bound, uid, origin``), three per
reconfiguration (``location, old_color, new_color``) and six per
execution (``location`` then the job's five).  A batch holds no
reference to a :class:`~repro.core.job.Job`, so a job is freed once it
leaves the pending pool, and CPython's cyclic GC stops tracking a
tuple whose items are all atomic (ints, strings, ``None``, tuples of
them).  Iteration and the typed views rebuild :class:`Event` objects
on demand that equal, field for field and in ``repr``, the ones
recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

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


#: batch kinds: the first field of every batch tuple.
DROP, ARRIVAL, RECONFIG, EXECUTION = range(4)
_TYPES = (DropEvent, ArrivalEvent, ReconfigEvent, ExecutionEvent)
_KIND_OF = {cls: kind for kind, cls in enumerate(_TYPES)}
#: fields per event, by kind.
_WIDTH = (5, 5, 3, 6)
_job_fields = attrgetter("color", "arrival", "delay_bound", "uid", "origin")


def _grouped(batch: tuple) -> Iterator[tuple]:
    """The batch's per-event field groups, in record order."""
    fields = iter(batch[3:])
    return zip(*[fields] * _WIDTH[batch[0]])


def _events(batch: tuple) -> list[Event]:
    """Rebuild a batch's events."""
    kind, rnd, mini = batch[0], batch[1], batch[2]
    cls = _TYPES[kind]
    if kind == RECONFIG:
        return [cls(rnd, mini, *fields) for fields in _grouped(batch)]
    if kind == EXECUTION:
        return [
            cls(rnd, mini, loc, Job(c, a, d, u, o))
            for loc, c, a, d, u, o in _grouped(batch)
        ]
    return [cls(rnd, mini, Job(*fields)) for fields in _grouped(batch)]


def _reprs(batch: tuple) -> list[str]:
    """``repr`` of each of a batch's events, formatted from the fields
    (identical to the dataclass ``repr`` of the rebuilt event)."""
    kind, rnd, mini = batch[0], batch[1], batch[2]
    head = f"{_TYPES[kind].__qualname__}(round={rnd!r}, mini_round={mini!r}, "
    if kind == RECONFIG:
        return [
            f"{head}location={loc!r}, old_color={old!r}, new_color={new!r})"
            for loc, old, new in _grouped(batch)
        ]
    if kind == EXECUTION:
        return [
            f"{head}location={loc!r}, job=Job(color={c!r}, arrival={a!r}, "
            f"delay_bound={d!r}, uid={u!r}, origin={o!r}))"
            for loc, c, a, d, u, o in _grouped(batch)
        ]
    return [
        f"{head}job=Job(color={c!r}, arrival={a!r}, delay_bound={d!r}, "
        f"uid={u!r}, origin={o!r}))"
        for c, a, d, u, o in _grouped(batch)
    ]


def _batch_of(event: Event) -> tuple:
    """A one-event batch."""
    kind = _KIND_OF[type(event)]
    if kind == RECONFIG:
        fields = (event.location, event.old_color, event.new_color)
    elif kind == EXECUTION:
        fields = (event.location, *_job_fields(event.job))
    else:
        fields = _job_fields(event.job)
    return (kind, event.round, event.mini_round, *fields)


class EventLog:
    """Append-only event record with typed views.

    Recording is optional (the simulator takes ``record_events=False`` for
    benchmark runs); a disabled log records nothing.  The simulator
    records each phase as one batch (:meth:`record_drops`,
    :meth:`record_arrivals`, :meth:`record_reconfigs`,
    :meth:`record_executions`); :meth:`append` and :meth:`extend` take
    event objects.  Reading rebuilds the events, so read a long log once
    and keep what you need rather than iterating it repeatedly.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._batches: list[tuple] = []
        self._count = 0

    # -- recording -------------------------------------------------------------

    def append(self, event: Event) -> None:
        self.extend((event,))

    def extend(self, events: Iterable[Event]) -> None:
        """Append ``events`` in order."""
        if self.enabled:
            for event in events:
                self._batches.append(_batch_of(event))
                self._count += 1

    def _record_jobs(self, kind: int, rnd: int, jobs: Sequence[Job]) -> None:
        if self.enabled and jobs:
            self._batches.append(
                (kind, rnd, 0, *chain.from_iterable(map(_job_fields, jobs)))
            )
            self._count += len(jobs)

    def record_drops(self, rnd: int, jobs: Sequence[Job]) -> None:
        """Record the drop phase of round ``rnd`` (jobs in drop order)."""
        self._record_jobs(DROP, rnd, jobs)

    def record_arrivals(self, rnd: int, jobs: Sequence[Job]) -> None:
        """Record the arrival phase of round ``rnd`` (jobs in request order)."""
        self._record_jobs(ARRIVAL, rnd, jobs)

    def record_reconfigs(
        self, rnd: int, mini: int, changes: Sequence[tuple[int, Color, Color]]
    ) -> None:
        """Record one reconfiguration phase: ``(location, old, new)`` triples."""
        if self.enabled and changes:
            self._batches.append(
                (RECONFIG, rnd, mini, *chain.from_iterable(changes))
            )
            self._count += len(changes)

    def record_executions(
        self, rnd: int, mini: int, executed: Sequence[tuple[int, Job]]
    ) -> None:
        """Record one execution phase: ``(location, job)`` pairs."""
        if self.enabled and executed:
            self._batches.append((
                EXECUTION, rnd, mini,
                *chain.from_iterable(
                    (loc, *_job_fields(job)) for loc, job in executed
                ),
            ))
            self._count += len(executed)

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Event]:
        for batch in self._batches:
            yield from _events(batch)

    def since(self, index: int) -> list[Event]:
        """Events appended at or after position ``index`` (``index >= 0``).

        ``log.since(mark)`` with ``mark = len(log)`` taken before an
        operation asks "what happened during it"; the cost is that of
        the batches recorded since the mark, not of the whole log.
        """
        start = self._count
        tail: list[tuple] = []
        for batch in reversed(self._batches):
            if start <= index:
                break
            tail.append(batch)
            start -= (len(batch) - 3) // _WIDTH[batch[0]]
        events = [event for batch in reversed(tail) for event in _events(batch)]
        return events[max(index - start, 0):]

    def reprs(self) -> Iterator[list[str]]:
        """Each batch's event ``repr`` strings, in record order -- the event
        stream the run digests hash, without rebuilding any event."""
        return map(_reprs, self._batches)

    def _of_kind(self, kind: int) -> list:
        return [
            event
            for batch in self._batches
            if batch[0] == kind
            for event in _events(batch)
        ]

    def arrivals(self) -> list[ArrivalEvent]:
        return self._of_kind(ARRIVAL)

    def drops(self) -> list[DropEvent]:
        return self._of_kind(DROP)

    def reconfigs(self) -> list[ReconfigEvent]:
        return self._of_kind(RECONFIG)

    def executions(self) -> list[ExecutionEvent]:
        return self._of_kind(EXECUTION)

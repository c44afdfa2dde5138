"""Unit jobs and colors.

The paper's model: every job is a *unit* job characterized by a non-black
color, a nonnegative integer arrival round, and a positive integer delay
bound.  The job's deadline is ``arrival + delay_bound``; it may be executed in
the execution phase of any round in ``[arrival, deadline)`` on a resource
configured to its color, and is dropped in the drop phase of round
``deadline`` otherwise, at unit drop cost.

Colors are plain hashable values.  The canonical colors produced by the
workload generators are small integers; the :mod:`repro.reductions` layer
also manufactures composite sub-colors ``(l, j)`` (Algorithm Distribute), so
nothing in the core may assume colors are integers — only that they are
hashable and totally ordered among themselves (the paper's "consistent order
of colors").
"""

from __future__ import annotations

import itertools as _itertools
from dataclasses import dataclass, field
from typing import Any, Hashable

# A color is any hashable, orderable value.  ``BLACK`` is the reserved color
# of an unconfigured resource; no job may be black.
Color = Hashable

#: The initial color of every resource ("initially, all resources are colored
#: black").  ``None`` is convenient: it is hashable, cannot collide with the
#: integer/tuple colors used by workloads and reductions, and reads naturally
#: as "not configured".
BLACK: Color = None

#: Process-unique job-id source.  ``itertools.count`` instead of a global
#: ``+=`` because ``next()`` on a count is atomic under CPython, so
#: concurrent instance builders (thread pools, the parallel runner's inline
#: path) can never mint duplicate uids.  Only *relative* uid order within
#: one instance is ever consulted (the EDF tie-break in ``sort_key``), so
#: the absolute counter value — which differs between a fresh worker
#: process and a warm one — cannot leak into schedules, costs, or cached
#: experiment payloads; ``tests/experiments/test_rng_isolation.py`` pins
#: this down.
_JOB_IDS = _itertools.count(1)


def _fresh_job_id() -> int:
    """Return a process-unique job id (used when the caller supplies none)."""
    return next(_JOB_IDS)


#: The default of ``Job(uid=...)``: mint a fresh id.  An explicit
#: ``uid=None`` is stored as given, as the generated ``__init__`` of a
#: ``default_factory`` field would store it.
_FRESH: Any = object()


@dataclass(frozen=True, slots=True)
class Job:
    """A unit job.

    Attributes
    ----------
    color:
        The job's category.  The job may only run on a resource configured
        to this color.
    arrival:
        Round index in which the job arrives (arrival phase).
    delay_bound:
        Positive integer ``D``; the job must run within ``D`` rounds.
    uid:
        Unique identifier, used to match executions to jobs in schedules
        and in the reductions (a transformed job remembers the original via
        ``origin``).
    origin:
        Optional back-reference to the uid of the original job this job was
        derived from by a reduction (VarBatch delay or Distribute recolor).
        ``None`` for native jobs.
    """

    color: Color
    arrival: int
    delay_bound: int
    uid: int = field(default_factory=_fresh_job_id)
    origin: int | None = None

    # Written by hand: the generated frozen ``__init__`` stores each field
    # through ``object.__setattr__`` and then calls ``__post_init__``,
    # which made it the largest per-job cost of the serve submit path.
    # This one checks the arguments first and stores the slots through
    # their member descriptors (which skip the frozen ``__setattr__``);
    # ``dataclass`` keeps a class's own ``__init__``.
    def __init__(
        self,
        color: Color,
        arrival: int,
        delay_bound: int,
        uid: int = _FRESH,
        origin: int | None = None,
    ) -> None:
        if color is BLACK:
            raise ValueError("jobs must have a non-black color")
        if arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {arrival}")
        if delay_bound < 1:
            raise ValueError(
                f"delay bound must be a positive integer, got {delay_bound}"
            )
        _set_color(self, color)
        _set_arrival(self, arrival)
        _set_delay_bound(self, delay_bound)
        _set_uid(self, next(_JOB_IDS) if uid is _FRESH else uid)
        _set_origin(self, origin)

    @property
    def deadline(self) -> int:
        """First round in which the job can no longer execute."""
        return self.arrival + self.delay_bound

    def executable_in(self, rnd: int) -> bool:
        """True if the job may legally execute in round ``rnd``."""
        return self.arrival <= rnd < self.deadline

    def derived(self, *, color: Color | None = None, arrival: int | None = None,
                delay_bound: int | None = None) -> "Job":
        """Return a transformed copy whose ``origin`` points back here.

        Used by the reductions: Distribute changes the color, VarBatch the
        arrival round and delay bound.  The derived job keeps the original's
        ``origin`` if it already has one, so chains of reductions still point
        to the native job.
        """
        return Job(
            color=self.color if color is None else color,
            arrival=self.arrival if arrival is None else arrival,
            delay_bound=self.delay_bound if delay_bound is None else delay_bound,
            origin=self.uid if self.origin is None else self.origin,
        )

    def sort_key(self) -> tuple[int, int, Any, int]:
        """Deadline-first ordering used by EDF-style job rankings.

        Matches the paper's pending-job ranking: increasing deadline, ties by
        increasing delay bound, then the consistent order of colors, then uid
        for determinism.
        """
        return (self.deadline, self.delay_bound, _color_order_key(self.color), self.uid)


# The slots' member descriptors, which ``Job.__init__`` stores through.
_set_color = Job.color.__set__  # type: ignore[attr-defined]
_set_arrival = Job.arrival.__set__  # type: ignore[attr-defined]
_set_delay_bound = Job.delay_bound.__set__  # type: ignore[attr-defined]
_set_uid = Job.uid.__set__  # type: ignore[attr-defined]
_set_origin = Job.origin.__set__  # type: ignore[attr-defined]


def _color_order_key(color: Color) -> Any:
    """A total order over heterogeneous colors.

    The paper fixes an arbitrary but *consistent* order of colors used to
    break ranking ties everywhere.  Native colors are ints; Distribute makes
    tuples ``(l, j)``; we order by (type-tag, value-as-tuple) so mixtures of
    the two sort deterministically.
    """
    if isinstance(color, tuple):
        return (1, tuple(_color_order_key(c) for c in color))
    if isinstance(color, int):
        return (0, color)
    return (2, repr(color))


#: Public alias of the consistent color order key.
color_sort_key = _color_order_key

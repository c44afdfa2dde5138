"""Pending job pools.

After a job arrives it is *pending* until executed or dropped.  The
simulator keeps one pool per color; pools hand out the earliest-deadline
pending job in ``O(log n)`` (heapq, per the reproduction band's hint) and
drop everything whose deadline has been reached.

Executed jobs are removed lazily: execution marks the uid as done, and the
heap discards stale entries when popped.  This keeps both execution and drop
operations logarithmic without heap surgery.

A heap entry is ``(deadline, delay_bound, color key, uid, job)``: the
fields of :meth:`Job.sort_key <repro.core.job.Job.sort_key>` followed by
the job, so entries order exactly as the jobs' sort keys do.

The store additionally maintains a cached nonidle-color set, updated on
every add/pop/drop instead of rescanning the pools, plus a consumable
*idle-flip* feed: the set of colors whose idleness changed since the last
query.  The incremental policies use the feed to keep their rankings in
sync without polling every color each round.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from repro.core.job import Color, Job, color_sort_key
from repro.telemetry.recorder import Recorder, get_recorder

#: Signature of the idle-transition listener a pool reports to.
IdleListener = Callable[[Color, bool], None]


class PendingPool:
    """Deadline-ordered pool of pending jobs of a single color."""

    __slots__ = ("color", "_heap", "_done", "_live", "_members", "_listener")

    def __init__(self, color: Color, listener: IdleListener | None = None):
        self.color = color
        self._heap: list[tuple] = []
        self._done: set[int] = set()
        #: uids currently pending (heap entries minus lazily-removed ones).
        self._members: set[int] = set()
        self._live = 0
        self._listener = listener

    def add(self, job: Job) -> None:
        color = job.color
        if color != self.color:
            raise ValueError(f"job color {color!r} != pool color {self.color!r}")
        bound = job.delay_bound
        uid = job.uid
        heapq.heappush(
            self._heap,
            (job.arrival + bound, bound, color_sort_key(color), uid, job),
        )
        self._members.add(uid)
        self._live += 1
        if self._live == 1 and self._listener is not None:
            self._listener(self.color, False)

    def __len__(self) -> int:
        return self._live

    def __contains__(self, job: Job) -> bool:
        return job.uid in self._members

    @property
    def idle(self) -> bool:
        """The paper's idleness predicate: no pending jobs of this color."""
        return self._live == 0

    def _skim(self) -> None:
        """Discard executed entries from the top of the heap."""
        heap = self._heap
        done = self._done
        while heap and heap[0][3] in done:
            done.discard(heapq.heappop(heap)[3])

    def peek(self) -> Job | None:
        """Earliest-deadline pending job, or None if idle."""
        self._skim()
        return self._heap[0][4] if self._heap else None

    def earliest_deadline(self) -> int | None:
        job = self.peek()
        return None if job is None else job.deadline

    def pop(self) -> Job:
        """Remove and return the earliest-deadline pending job."""
        self._skim()
        if not self._heap:
            raise IndexError(f"pool for color {self.color!r} is empty")
        job = heapq.heappop(self._heap)[4]
        self._members.discard(job.uid)
        self._live -= 1
        if self._live == 0 and self._listener is not None:
            self._listener(self.color, True)
        return job

    def remove(self, job: Job) -> None:
        """Mark a pending job as no longer pending (lazy heap removal).

        Raises :class:`KeyError` if ``job`` is not currently pending in this
        pool (never added, already executed, dropped, or removed) — silently
        decrementing in that case would drive the live count negative and
        make ``idle`` lie about remaining work.
        """
        if job.uid not in self._members:
            raise KeyError(
                f"job {job.uid} is not pending in the pool for color "
                f"{self.color!r}"
            )
        self._done.add(job.uid)
        self._members.discard(job.uid)
        self._live -= 1
        if self._live == 0 and self._listener is not None:
            self._listener(self.color, True)

    def drop_expired(self, rnd: int) -> list[Job]:
        """Remove and return every pending job with deadline <= ``rnd``.

        In the paper's phase order, the drop phase of round ``i`` drops the
        jobs with deadline exactly ``i``; since the simulator calls this every
        round, ``<=`` and ``==`` coincide, but ``<=`` makes the pool robust to
        sparse driving (e.g. schedule validation jumping between rounds).
        """
        heap = self._heap
        done = self._done
        members = self._members
        pop = heapq.heappop
        dropped: list[Job] = []
        while heap:
            entry = heap[0]
            if entry[3] in done:
                done.discard(pop(heap)[3])
            elif entry[0] > rnd:
                break
            else:
                pop(heap)
                members.discard(entry[3])
                dropped.append(entry[4])
        if dropped:
            self._live -= len(dropped)
            if self._live == 0 and self._listener is not None:
                self._listener(self.color, True)
        return dropped

    def pending_jobs(self) -> list[Job]:
        """Snapshot of pending jobs in deadline order (test/analysis helper)."""
        self._skim()
        done = self._done
        live = [entry[4] for entry in self._heap if entry[3] not in done]
        return sorted(live, key=Job.sort_key)


class PendingStore:
    """All pending jobs, bucketed per color.

    Maintains the nonidle-color set incrementally: every pool reports its
    idle transitions here, so :meth:`nonidle_colors`, :meth:`idle` and the
    :meth:`take_idle_flips` feed never rescan the pools.
    """

    def __init__(self, telemetry: Recorder | None = None) -> None:
        self._pools: dict[Color, PendingPool] = {}
        self._nonidle: set[Color] = set()
        self._idle_flips: set[Color] = set()
        self.telemetry = telemetry if telemetry is not None else get_recorder()

    def _on_idle_change(self, color: Color, now_idle: bool) -> None:
        if now_idle:
            self._nonidle.discard(color)
        else:
            self._nonidle.add(color)
        self._idle_flips.add(color)

    def pool(self, color: Color) -> PendingPool:
        pool = self._pools.get(color)
        if pool is None:
            pool = self._pools[color] = PendingPool(color, self._on_idle_change)
        return pool

    def add(self, job: Job) -> None:
        pool = self._pools.get(job.color)
        if pool is None:
            pool = self.pool(job.color)
        pool.add(job)

    def colors(self) -> Iterator[Color]:
        return iter(self._pools)

    def nonidle_colors(self) -> list[Color]:
        """Nonidle colors in pool-creation order (the historical order)."""
        nonidle = self._nonidle
        return [color for color in self._pools if color in nonidle]

    def nonidle_set(self) -> set[Color]:
        """The cached nonidle-color set.  Treat as read-only."""
        return self._nonidle

    def take_idle_flips(self) -> set[Color]:
        """Colors whose idleness changed since the last call; clears the feed.

        There is one online policy per simulator, so a single consumer
        suffices; unconsumed flips cost at most one set entry per color.
        """
        flips = self._idle_flips
        if flips:
            self._idle_flips = set()
            if self.telemetry.enabled:
                self.telemetry.observe("repro_idle_flips_size", len(flips))
        return flips

    def idle(self, color: Color) -> bool:
        return color not in self._nonidle

    def pending_count(self, color: Color | None = None) -> int:
        if color is not None:
            pool = self._pools.get(color)
            return 0 if pool is None else len(pool)
        return sum(len(pool) for pool in self._pools.values())

    def drop_expired(self, rnd: int) -> list[Job]:
        """Drop every pending job whose deadline has been reached.

        Only nonidle pools can hold droppable jobs, so the scan is over the
        cached nonidle set (in pool-creation order, as before) rather than
        every pool ever seen.
        """
        dropped: list[Job] = []
        nonidle = self._nonidle
        if not nonidle:
            return dropped
        for color, pool in self._pools.items():
            if color in nonidle:
                dropped.extend(pool.drop_expired(rnd))
        return dropped

    def execute_one(self, color: Color) -> Job | None:
        """Pop the earliest-deadline pending job of ``color``, if any."""
        if color not in self._nonidle:
            return None
        return self._pools[color].pop()

    def all_pending(self) -> list[Job]:
        jobs: list[Job] = []
        for pool in self._pools.values():
            jobs.extend(pool.pending_jobs())
        return sorted(jobs, key=Job.sort_key)

"""Pending job pools.

After a job arrives it is *pending* until executed or dropped.  The
simulator keeps one pool per color; pools hand out the earliest-deadline
pending job in ``O(log n)`` (heapq, per the reproduction band's hint) and
drop everything whose deadline has been reached.

Execution pops the heap head and the drop phase pops every due head, so
every heap entry is a pending job and both operations stay logarithmic.

A heap entry is ``(deadline, delay_bound, color key, uid, job)``: the
fields of :meth:`Job.sort_key <repro.core.job.Job.sort_key>` followed by
the job, so entries order exactly as the jobs' sort keys do.

The store additionally maintains a cached nonidle-color set, updated on
every add/pop/drop instead of rescanning the pools, plus a consumable
*idle-flip* feed: the set of colors whose idleness changed since the last
query.  The incremental policies use the feed to keep their rankings in
sync without polling every color each round.  A *due queue* of pool heads
lets the drop phase visit only the pools that may have a job due instead
of walking every pool.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.core.job import Color, Job, color_sort_key
from repro.telemetry.recorder import Recorder, get_recorder


class PendingPool:
    """Deadline-ordered pool of pending jobs of a single color.

    A pool made by a :class:`PendingStore` reports to it: its idle
    transitions, and every new heap head (which the store queues for the
    drop phase).  ``index`` is the pool's creation index in that store.
    """

    __slots__ = ("color", "index", "_heap", "_store", "_key_color", "_key")

    def __init__(
        self, color: Color, store: PendingStore | None = None, index: int = 0
    ):
        self.color = color
        self.index = index
        self._heap: list[tuple] = []
        self._store = store
        #: the color object of the last job added and its sort key.  Equal
        #: colors share a pool but not a key (``1``, ``1.0`` and ``True``
        #: order by type), so the key is reused only for the same object.
        #: No job is black, so the first job always computes its key.
        self._key_color: Color = None
        self._key: object = None

    def add(self, job: Job) -> None:
        color = job.color
        if color is self._key_color:
            key = self._key
        else:
            if color != self.color:
                raise ValueError(
                    f"job color {color!r} != pool color {self.color!r}"
                )
            key = self._key = color_sort_key(color)
            self._key_color = color
        bound = job.delay_bound
        heap = self._heap
        entry = (job.arrival + bound, bound, key, job.uid, job)
        heapq.heappush(heap, entry)
        store = self._store
        if store is not None:
            if len(heap) == 1:
                store._on_idle_change(self.color, False)
            if heap[0] is entry:
                heapq.heappush(store._due, (entry[0], self.index, self.color))

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def idle(self) -> bool:
        """The paper's idleness predicate: no pending jobs of this color."""
        return not self._heap

    def peek(self) -> Job | None:
        """Earliest-deadline pending job, or None if idle."""
        return self._heap[0][4] if self._heap else None

    def earliest_deadline(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Job:
        """Remove and return the earliest-deadline pending job."""
        heap = self._heap
        if not heap:
            raise IndexError(f"pool for color {self.color!r} is empty")
        job = heapq.heappop(heap)[4]
        if not heap and self._store is not None:
            self._store._on_idle_change(self.color, True)
        return job

    def drop_expired(self, rnd: int) -> list[Job]:
        """Remove and return every pending job with deadline <= ``rnd``.

        In the paper's phase order, the drop phase of round ``i`` drops the
        jobs with deadline exactly ``i``; since the simulator calls this every
        round, ``<=`` and ``==`` coincide, but ``<=`` makes the pool robust to
        sparse driving (e.g. schedule validation jumping between rounds).
        """
        heap = self._heap
        pop = heapq.heappop
        dropped: list[Job] = []
        while heap and heap[0][0] <= rnd:
            dropped.append(pop(heap)[4])
        if dropped and not heap and self._store is not None:
            self._store._on_idle_change(self.color, True)
        return dropped

    def pending_jobs(self) -> list[Job]:
        """Snapshot of pending jobs in deadline order (test/analysis helper)."""
        return sorted([entry[4] for entry in self._heap], key=Job.sort_key)


class PendingStore:
    """All pending jobs, bucketed per color.

    Maintains the nonidle-color set incrementally: every pool reports its
    idle transitions here, so :meth:`nonidle_colors`, :meth:`idle` and the
    :meth:`take_idle_flips` feed never rescan the pools.

    The due queue is a min-heap of ``(head deadline, pool creation index,
    color)`` entries.  Its invariant: every pool with heap entries has a
    queued deadline no later than its heap head.  A pool queues itself when
    an added job becomes its heap head (its first job, or an earlier
    deadline than its pending ones); executions only move the head later,
    so its entry stays valid; and the drop phase re-queues the head of
    every pool it visits.  Entries can be stale (their job was executed)
    or repeated, never missing.
    """

    def __init__(self, telemetry: Recorder | None = None) -> None:
        self._pools: dict[Color, PendingPool] = {}
        self._nonidle: set[Color] = set()
        self._idle_flips: set[Color] = set()
        self._due: list[tuple[int, int, Color]] = []
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
            pool = self._pools[color] = PendingPool(color, self, len(self._pools))
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

        Pops every due-queue entry with deadline ``<= rnd`` (so sparse
        driving stays correct) and visits those pools once each, in
        creation order (the historical drop order).  A heap head holds its
        pool's earliest deadline, so a visited pool is called only when its
        head is due: any other call would drop nothing.  Each visited
        pool's new head is queued again.
        """
        due = self._due
        if not due or due[0][0] > rnd:
            return []
        pop = heapq.heappop
        visit: dict[int, Color] = {}
        while due and due[0][0] <= rnd:
            _, index, color = pop(due)
            visit[index] = color
        dropped: list[Job] = []
        pools = self._pools
        push = heapq.heappush
        for index in sorted(visit):
            color = visit[index]
            pool = pools[color]
            heap = pool._heap
            if not heap:
                continue
            if heap[0][0] <= rnd:
                dropped.extend(pool.drop_expired(rnd))
                if not heap:
                    continue
            push(due, (heap[0][0], index, color))
        return dropped

    def execute_one(self, color: Color) -> Job | None:
        """Pop the earliest-deadline pending job of ``color``, if any."""
        if color not in self._nonidle:
            return None
        return self._pools[color].pop()

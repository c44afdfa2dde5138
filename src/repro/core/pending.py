"""Pending job pools.

After a job arrives it is *pending* until executed or dropped.  The
simulator keeps one pool per color; pools hand out the earliest-deadline
pending job in ``O(log n)`` (heapq, per the reproduction band's hint) and
drop everything whose deadline has been reached.

Execution takes from the heap head and the drop phase pops every due
head, so every heap entry holds pending jobs and both operations stay
logarithmic.

A heap entry takes one of two forms:

- a *job entry* ``(deadline, delay_bound, color key, uid, job)``: the
  fields of :meth:`Job.sort_key <repro.core.job.Job.sort_key>` followed
  by the job, so entries order exactly as the jobs' sort keys do;
- a *run* ``(deadline, delay_bound, color key, smallest uid, jobs)``:
  jobs of one arrival round that share one color object and one delay
  bound, so one sort-key prefix, held in a list by falling uid.
  Execution pops the list's last (smallest-uid) job and the drop phase
  drops the whole run with one ``heappop``.

The group a pool is handed picks the form: :meth:`PendingPool.add_group`
makes a run of two or more jobs that share one color object, arrival
and bound, and a job entry of anything else (a lone job, or a group
mixing ``1``/``1.0``/``True`` or bounds).  A run's uid field is not
updated as its jobs execute; that is safe because no other entry shares
a run's ``(deadline, delay_bound, color key)`` prefix, so comparisons
never reach it.  The rule holds when each round's arrivals are added in
one :meth:`PendingStore.add_arrivals` call, as the simulator does:
equal colors land in one group, and equal deadlines and bounds mean
equal arrival rounds.  Pools therefore yield, execute and drop jobs in
exactly the order of one entry per job.

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
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

from repro.core.job import Color, Job, color_sort_key
from repro.telemetry.recorder import Recorder, get_recorder

_uid = attrgetter("uid")


class PendingPool:
    """Deadline-ordered pool of pending jobs of a single color.

    A pool made by a :class:`PendingStore` reports to it: its idle
    transitions, and every new heap head (which the store queues for the
    drop phase).  ``index`` is the pool's creation index in that store.
    """

    __slots__ = (
        "color", "index", "_heap", "_store", "_key_color", "_key", "_extra",
    )

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
        #: pending jobs beyond one per heap entry (a run of k jobs adds
        #: k - 1), so the pool holds ``len(_heap) + _extra`` jobs.
        self._extra = 0

    def add(self, job: Job) -> None:
        color = job.color
        key = self._key if color is self._key_color else self._key_of(color)
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

    def add_group(self, jobs: Sequence[Job]) -> None:
        """Add jobs that arrive in one round: as one run when there are
        two or more and they share one color object, arrival and delay
        bound, else one :meth:`add` each.

        The caller adds each round's jobs of this color in one call (see
        the module docstring): no other entry may share a run's prefix.
        ``jobs`` is not changed; the run holds a sorted copy.
        """
        if len(jobs) > 1:
            first = jobs[0]
            color = first.color
            arrival = first.arrival
            bound = first.delay_bound
            for job in jobs:
                if (
                    job.color is not color
                    or job.arrival != arrival
                    or job.delay_bound != bound
                ):
                    break
            else:
                key = (
                    self._key if color is self._key_color
                    else self._key_of(color)
                )
                run = sorted(jobs, key=_uid, reverse=True)
                heap = self._heap
                entry = (arrival + bound, bound, key, run[-1].uid, run)
                heapq.heappush(heap, entry)
                self._extra += len(run) - 1
                store = self._store
                if store is not None:
                    if len(heap) == 1:
                        store._on_idle_change(self.color, False)
                    if heap[0] is entry:
                        heapq.heappush(
                            store._due, (entry[0], self.index, self.color)
                        )
                return
        for job in jobs:
            self.add(job)

    def _key_of(self, color: Color) -> object:
        """Check ``color`` against the pool's and memo its sort key."""
        if color != self.color:
            raise ValueError(f"job color {color!r} != pool color {self.color!r}")
        key = self._key = color_sort_key(color)
        self._key_color = color
        return key

    def __len__(self) -> int:
        return len(self._heap) + self._extra

    @property
    def idle(self) -> bool:
        """The paper's idleness predicate: no pending jobs of this color."""
        return not self._heap

    def peek(self) -> Job | None:
        """Earliest-deadline pending job, or None if idle."""
        if not self._heap:
            return None
        item = self._heap[0][4]
        return item[-1] if item.__class__ is list else item

    def earliest_deadline(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Job:
        """Remove and return the earliest-deadline pending job."""
        heap = self._heap
        if not heap:
            raise IndexError(f"pool for color {self.color!r} is empty")
        item = heap[0][4]
        if item.__class__ is list:
            job = item.pop()
            if item:
                self._extra -= 1
                return job
            heapq.heappop(heap)
        else:
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
            item = pop(heap)[4]
            if item.__class__ is list:
                self._extra -= len(item) - 1
                item.reverse()
                dropped += item
            else:
                dropped.append(item)
        if dropped and not heap and self._store is not None:
            self._store._on_idle_change(self.color, True)
        return dropped

    def pending_jobs(self) -> list[Job]:
        """Snapshot of pending jobs in deadline order (test/analysis helper)."""
        jobs: list[Job] = []
        for entry in self._heap:
            item = entry[4]
            if item.__class__ is list:
                jobs += item
            else:
                jobs.append(item)
        return sorted(jobs, key=Job.sort_key)


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

    def add_arrivals(self, groups: Mapping[Color, Sequence[Job]]) -> None:
        """Add one round's arrivals, grouped by color as
        :meth:`Request.by_color <repro.core.request.Request.by_color>`
        groups them: a lone job with :meth:`PendingPool.add`, a larger
        group with :meth:`PendingPool.add_group`.  Call it once per round
        (see the module docstring); the groups are only read.
        """
        pools = self._pools
        for color, jobs in groups.items():
            pool = pools.get(color)
            if pool is None:
                pool = self.pool(color)
            if len(jobs) == 1:
                pool.add(jobs[0])
            else:
                pool.add_group(jobs)

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

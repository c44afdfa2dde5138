"""Live request sequences: feeding the simulator from a queue.

Everything else in :mod:`repro.core` consumes a pre-baked
:class:`~repro.core.request.RequestSequence` — the full input is known
before round 0.  The paper's problem is *online*, though: jobs of color
``l`` arrive over time and must be scheduled within ``D_l`` rounds or
dropped.  :class:`LiveSequence` is the adapter that closes the gap: it
exposes the one method the simulator's round loop actually needs
(:meth:`request`) while jobs are pushed in from outside — a network
server, a generator, a test harness — with an open-ended horizon and an
explicit round clock owned by the caller.

The determinism contract: pushing the jobs of a fixed
:class:`~repro.core.request.RequestSequence` round by round (same jobs,
same uids, same within-round order) and stepping the simulator manually
produces ledger/schedule/event digests byte-identical to
``Simulator.run`` on the frozen sequence.  ``tests/serve`` pins this for
both engines and speeds 1 and 2.

Admission rules enforced at the edge (push time), so a rejected job
never corrupts simulator state:

- the sequence must not be closed (``closed``);
- arrivals must not target an already-consumed round (``stale_round``);
- per-color delay bounds must be consistent — the model's ``D_l`` is a
  property of the color, not the job (``inconsistent_delay_bound``).

Violations raise :class:`LiveSequenceError` carrying a machine-readable
``reason``; the serve layer maps these 1:1 onto reject frames.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.job import Color, Job
from repro.core.request import Instance, Request

__all__ = ["LiveSequence", "LiveSequenceError"]


class LiveSequenceError(ValueError):
    """An admission or ordering violation, with a machine-readable reason."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _bound_conflict(color: Color, prev: int, delay_bound: int) -> LiveSequenceError:
    """The refusal of a job whose color is held to delay bound ``prev``."""
    return LiveSequenceError(
        "inconsistent_delay_bound",
        f"color {color!r} is registered with delay bound {prev}, "
        f"got {delay_bound}",
    )


class LiveSequence:
    """A request sequence fed at runtime, consumed strictly in round order.

    Duck-types the slice of :class:`~repro.core.request.RequestSequence`
    the :class:`~repro.core.simulator.Simulator` round loop uses:
    :meth:`request` and :attr:`horizon`.  The caller owns the round
    clock — it pushes jobs for future rounds, then drives
    ``Simulator.step`` (or :meth:`request` directly) one round at a
    time.  Each round's request is delivered exactly once, in push
    order, and the bucket is discarded afterwards, so memory is bounded
    by the jobs still in flight, not the session's age.
    """

    def __init__(self):
        self._buckets: dict[int, list[Job]] = {}
        self._next = 0
        self._closed = False
        self._buffered = 0
        self._pushed = 0
        self._bounds: dict[Color, int] = {}
        self._max_deadline = 0

    # -- state ----------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Rounds delivered so far (the open-ended analogue of a horizon)."""
        return self._next

    @property
    def next_round(self) -> int:
        """The round the next :meth:`request` call must ask for."""
        return self._next

    @property
    def buffered(self) -> int:
        """Jobs pushed but not yet delivered to the simulator."""
        return self._buffered

    @property
    def num_jobs(self) -> int:
        """Total jobs ever pushed."""
        return self._pushed

    @property
    def closed(self) -> bool:
        return self._closed

    def delay_bound_of(self, color: Color) -> int | None:
        """The registered ``D_l`` of ``color``, or None if never seen."""
        return self._bounds.get(color)

    def delay_bounds(self) -> dict[Color, int]:
        """Per-color delay bounds registered so far (a copy)."""
        return dict(self._bounds)

    def drain_horizon(self) -> int:
        """First round by which every pushed job has executed or dropped.

        Stepping the simulator up to (excluding) this round guarantees
        no job is still pending: drops happen in the round equal to the
        deadline, so the last interesting round is ``max deadline``.
        """
        if self._pushed == 0:
            return self._next
        return max(self._next, self._max_deadline + 1)

    # -- feeding --------------------------------------------------------------

    def check(self, color: Color, arrival: int, delay_bound: int) -> None:
        """Raise :class:`LiveSequenceError` if a push would be rejected.

        Lets callers validate a whole batch *before* mutating anything —
        the serve layer's atomic admission control.
        """
        if self._closed:
            raise LiveSequenceError("closed", "live sequence is closed")
        if arrival < self._next:
            raise LiveSequenceError(
                "stale_round",
                f"arrival round {arrival} already consumed "
                f"(next round is {self._next})",
            )
        prev = self._bounds.get(color)
        if prev is not None and prev != delay_bound:
            raise _bound_conflict(color, prev, delay_bound)

    def admits(self, arrival: int, bounds: Iterable[tuple[Color, int]]) -> bool:
        """True if :meth:`check` passes every job that arrives in round
        ``arrival`` or later with a ``(color, delay bound)`` pair in
        ``bounds``: the sequence is open, ``arrival`` is not consumed,
        and no pair's color is registered with another bound.

        Tells the serve admission gate in one call per batch that no job
        of it can be refused here; a False answer names no job, so the
        caller then finds the refusal with :meth:`check`.
        """
        if self._closed or arrival < self._next:
            return False
        registered = self._bounds.get
        for color, delay_bound in bounds:
            prev = registered(color)
            if prev is not None and prev != delay_bound:
                return False
        return True

    def push(self, job: Job) -> None:
        """Admit one job for its arrival round (must not be in the past)."""
        self.push_many((job,))

    def push_many(self, jobs: Sequence[Job]) -> None:
        """Admit a batch in order, all of it or none of it.

        Each job must pass :meth:`check` with the delay bounds of the jobs
        before it in the batch already registered — the rules one
        :meth:`push` per job applies.  On the first violation this raises
        that job's :class:`LiveSequenceError` and changes nothing.
        """
        check = self.check
        fresh: dict[Color, int] = {}
        for job in jobs:
            color = job.color
            bound = job.delay_bound
            check(color, job.arrival, bound)
            prev = fresh.setdefault(color, bound)
            if prev != bound:
                raise _bound_conflict(color, prev, bound)
        self.push_checked(jobs)

    def push_checked(self, jobs: Sequence[Job]) -> None:
        """Admit a batch that already passed :meth:`push_many`'s checks.

        The caller guarantees that each job passes :meth:`check` with the
        bounds of the jobs before it in the batch registered, and must
        not mutate the sequence between that check and this call; the
        serve admission gate validates a whole submit that way before it
        commits one.  Nothing is checked again here.
        """
        bounds = self._bounds
        buckets = self._buckets
        max_deadline = self._max_deadline
        for job in jobs:
            bounds[job.color] = job.delay_bound
            arrival = job.arrival
            bucket = buckets.get(arrival)
            if bucket is None:
                buckets[arrival] = [job]
            else:
                bucket.append(job)
            deadline = arrival + job.delay_bound
            if deadline > max_deadline:
                max_deadline = deadline
        self._max_deadline = max_deadline
        self._buffered += len(jobs)
        self._pushed += len(jobs)

    def close(self) -> None:
        """Refuse all further pushes (already-buffered rounds still deliver)."""
        self._closed = True

    # -- consumption (the simulator-facing side) ------------------------------

    def request(self, rnd: int) -> Request:
        """The request of round ``rnd``; rounds must be consumed in order."""
        if rnd != self._next:
            raise LiveSequenceError(
                "out_of_order",
                f"live requests must be consumed in order; "
                f"expected round {self._next}, got {rnd}",
            )
        self._next = rnd + 1
        jobs = tuple(self._buckets.pop(rnd, ()))
        self._buffered -= len(jobs)
        return Request(rnd, jobs)

    # -- convenience ----------------------------------------------------------

    def as_instance(
        self,
        delta: int | float,
        name: str = "live",
        metadata: Mapping[str, object] | None = None,
    ) -> Instance:
        """Wrap this sequence in an :class:`~repro.core.request.Instance`.

        The instance's structural predicates (``notation`` etc.) are not
        meaningful on a live sequence; the simulator only reads
        ``sequence``/``delta``, which is exactly what this provides.
        """
        return Instance(
            self,  # type: ignore[arg-type]
            delta,
            name=name,
            metadata=metadata if metadata is not None else {},
        )

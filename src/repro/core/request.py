"""Requests, request sequences, and problem instances.

A *request* is the (possibly empty) set of jobs arriving in one round.  A
*request sequence* is the full input: one request per round, indexed from 0.
An *instance* bundles a request sequence with the reconfiguration cost
``Delta`` — everything an algorithm needs apart from its resource count.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.job import Color, Job


@dataclass(frozen=True, slots=True)
class Request:
    """The set of unit jobs arriving in a single round."""

    round: int
    jobs: tuple[Job, ...]
    _groups: dict[Color, list[Job]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rnd = self.round
        groups: dict[Color, list[Job]] = {}
        for job in self.jobs:
            if job.arrival != rnd:
                raise ValueError(
                    f"job {job.uid} arrives in round {job.arrival}, "
                    f"but is in the request of round {rnd}"
                )
            color = job.color
            group = groups.get(color)
            if group is None:
                groups[color] = [job]
            else:
                group.append(job)
        _set_groups(self, groups)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def by_color(self) -> dict[Color, list[Job]]:
        """The request's jobs grouped by color, in request order.

        Computed once, when the request is made, and shared: every call
        returns the same dict.  The simulator's arrival phase hands it
        to the pending store and the policies' arrival hooks read it
        (``SectionThreeState``, ``DirectPolicy``, the weighted policy),
        as does ``distribute_sequence``, so no caller may mutate it or
        its lists; the pending pools sort a copy.
        """
        return self._groups


#: Stores ``Request._groups`` through its slot (the request is frozen).
_set_groups = Request._groups.__set__  # type: ignore[attr-defined]


class RequestSequence:
    """An immutable input sequence: requests for rounds ``0 .. horizon-1``.

    Construction accepts any iterable of jobs; rounds with no job become
    empty requests.  The *horizon* is the number of rounds the input spans.
    By default it extends to the latest deadline, so every job's full
    execution window (and its drop round) lies inside the simulated range.
    """

    def __init__(self, jobs: Iterable[Job], horizon: int | None = None):
        buckets: dict[int, list[Job]] = defaultdict(list)
        max_deadline = 0
        count = 0
        for job in jobs:
            buckets[job.arrival].append(job)
            max_deadline = max(max_deadline, job.deadline)
            count += 1
        inferred = max_deadline + 1 if count else 0
        self._horizon = inferred if horizon is None else horizon
        if self._horizon < inferred:
            raise ValueError(
                f"horizon {self._horizon} truncates jobs: "
                f"latest deadline is {max_deadline}"
            )
        self._buckets: dict[int, tuple[Job, ...]] = {
            rnd: tuple(jb) for rnd, jb in buckets.items()
        }
        self._num_jobs = count

    # -- basic accessors ----------------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of rounds the sequence spans (index range ``0..horizon-1``)."""
        return self._horizon

    @property
    def num_jobs(self) -> int:
        return self._num_jobs

    def request(self, rnd: int) -> Request:
        """The request of round ``rnd`` (empty if no jobs arrive)."""
        return Request(rnd, self._buckets.get(rnd, ()))

    def __iter__(self) -> Iterator[Request]:
        for rnd in range(self._horizon):
            yield self.request(rnd)

    def jobs(self) -> Iterator[Job]:
        """All jobs in arrival order (ties in uid order)."""
        for rnd in sorted(self._buckets):
            yield from sorted(self._buckets[rnd], key=lambda j: j.uid)

    def __len__(self) -> int:
        return self._horizon

    # -- derived facts ------------------------------------------------------

    def colors(self) -> set[Color]:
        return {job.color for job in self.jobs()}

    def delay_bounds(self) -> dict[Color, int]:
        """Per-color delay bound; raises if a color is inconsistent.

        The paper's model gives the delay bound per color (``D_l``); the job
        model carries it per job for generality, so this helper both recovers
        the map and enforces the per-color assumption where it matters.
        """
        bounds: dict[Color, int] = {}
        for job in self.jobs():
            prev = bounds.setdefault(job.color, job.delay_bound)
            if prev != job.delay_bound:
                raise ValueError(
                    f"color {job.color!r} has inconsistent delay bounds "
                    f"{prev} and {job.delay_bound}"
                )
        return bounds

    def jobs_per_color(self) -> Counter:
        counter: Counter = Counter()
        for job in self.jobs():
            counter[job.color] += 1
        return counter

    # -- structural predicates (the paper's batch field) ---------------------

    def is_batched(self) -> bool:
        """True if every color-``l`` job arrives at a multiple of ``D_l``."""
        return all(job.arrival % job.delay_bound == 0 for job in self.jobs())

    def is_rate_limited(self) -> bool:
        """True if batched and each batch has at most ``D_l`` color-``l`` jobs."""
        if not self.is_batched():
            return False
        per_batch: Counter = Counter()
        for job in self.jobs():
            per_batch[(job.color, job.arrival)] += 1
        return all(
            count <= self._delay_of(color)
            for (color, _), count in per_batch.items()
        )

    def _delay_of(self, color: Color) -> int:
        for job in self.jobs():
            if job.color == color:
                return job.delay_bound
        raise KeyError(color)

    def has_power_of_two_bounds(self) -> bool:
        return all(_is_power_of_two(job.delay_bound) for job in self.jobs())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a compact JSON trace (colors must be JSON-encodable)."""
        records = [
            {
                "color": _encode_color(job.color),
                "arrival": job.arrival,
                "delay_bound": job.delay_bound,
                "uid": job.uid,
            }
            for job in self.jobs()
        ]
        return json.dumps({"horizon": self._horizon, "jobs": records})

    @classmethod
    def from_json(cls, text: str) -> "RequestSequence":
        payload = json.loads(text)
        jobs = [
            Job(
                color=_decode_color(rec["color"]),
                arrival=rec["arrival"],
                delay_bound=rec["delay_bound"],
                uid=rec["uid"],
            )
            for rec in payload["jobs"]
        ]
        return cls(jobs, horizon=payload["horizon"])


@dataclass(frozen=True)
class Instance:
    """A full problem instance: request sequence plus reconfiguration cost.

    ``delta`` is a positive number.  The paper assumes a positive integer
    "for convenience" and notes the generalization to arbitrary ``Delta`` is
    straightforward — this implementation supports any positive float (the
    counter machinery compares integer job counts against it and wraps
    modulo it, which is well-defined for floats).
    """

    sequence: RequestSequence
    delta: int | float
    name: str = ""
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError(f"Delta must be positive, got {self.delta}")

    @property
    def horizon(self) -> int:
        return self.sequence.horizon

    def notation(self) -> str:
        """The paper's ``[reconfig | drop | delay | batch]`` tag."""
        if self.sequence.is_rate_limited():
            batch = "D_l (rate-limited)"
        elif self.sequence.is_batched():
            batch = "D_l"
        else:
            batch = "1"
        return f"[{self.delta} | 1 | D_l | {batch}]"


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def _encode_color(color: Color) -> object:
    if isinstance(color, tuple):
        return {"t": [_encode_color(c) for c in color]}
    return color


def _decode_color(payload: object) -> Color:
    if isinstance(payload, dict) and "t" in payload:
        return tuple(_decode_color(c) for c in payload["t"])
    return payload  # type: ignore[return-value]


def encode_color(color: Color) -> object:
    """JSON-encodable form of a color (tuples become ``{"t": [...]}``).

    Public alias of the codec the trace/schedule serializers use; the
    serve wire protocol shares it so colors round-trip identically
    everywhere.
    """
    return _encode_color(color)


def decode_color(payload: object) -> Color:
    """Inverse of :func:`encode_color`."""
    return _decode_color(payload)


def sequence_from_arrivals(
    arrivals: Mapping[int, Sequence[tuple[Color, int]]] | Sequence[Sequence[tuple[Color, int]]],
    horizon: int | None = None,
) -> RequestSequence:
    """Build a sequence from ``{round: [(color, delay_bound), ...]}``.

    Convenience constructor for tests and examples: job uids are assigned
    automatically.
    """
    items: Iterable[tuple[int, Sequence[tuple[Color, int]]]]
    if isinstance(arrivals, Mapping):
        items = arrivals.items()
    else:
        items = enumerate(arrivals)
    jobs = [
        Job(color=color, arrival=rnd, delay_bound=bound)
        for rnd, specs in items
        for color, bound in specs
    ]
    return RequestSequence(jobs, horizon=horizon)

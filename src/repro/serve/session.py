"""Sharded live scheduling sessions.

One session = ``S`` independent simulators, each owning a
:class:`~repro.core.live.LiveSequence` and a slice of the ``n``
resources.  Jobs are routed to shards by hashing their color, so every
color's full pending pool lives on exactly one shard and the per-color
semantics (delay bound ``D_l``, counter machinery, EDF order within a
color) are untouched by sharding.  The capacity split is exact: shares
are computed with :class:`fractions.Fraction` largest-remainder, never
binary floats.

Determinism: the shard of a color depends only on the color and the
shard count (framed blake2b, no process hash seed), and each shard is a
stock :class:`~repro.core.simulator.Simulator`.  Replaying the same
submissions in the same order therefore reproduces every shard's run
digest bit-for-bit — which is what ``repro loadgen --verify`` checks
against an offline :meth:`Simulator.run`.

Admission is atomic per submit batch: every job is validated against
every rule (round staleness, delay-bound consistency including within
the batch, per-shard backpressure, duplicate uids) before any state
changes, so a rejected batch leaves the session untouched.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Callable, Sequence

from repro.core.digest import component_digests
from repro.core.engine import make_simulator, resolve_engine
from repro.core.events import DropEvent, ExecutionEvent, ReconfigEvent
from repro.core.job import Color, Job
from repro.core.live import LiveSequence, LiveSequenceError
from repro.core.simulator import Policy
from repro.policies.dlru_edf import _exact_fraction
from repro.serve.tenants import (
    ShardTenantMeter,
    TenantContract,
    TenantDirectory,
    shard_shares,
)
from repro.telemetry.recorder import Recorder

__all__ = [
    "AdmissionError",
    "SessionShard",
    "ShardedSession",
    "shard_of",
    "split_capacity",
]


def shard_of(color: Color, shards: int) -> int:
    """The shard owning ``color`` (deterministic, hash-seed independent).

    Uses the same type+repr framing as the experiment seed derivation so
    ``1`` and ``"1"`` cannot collide, hashed with blake2b — stable
    across processes, platforms, and ``PYTHONHASHSEED``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return 0
    label = f"{type(color).__name__}:{color!r}".encode("utf-8")
    word = hashlib.blake2b(label, digest_size=8).digest()
    return int.from_bytes(word, "big") % shards


def split_capacity(
    n: int,
    shards: int,
    weights: Sequence[int | float] | None = None,
) -> list[int]:
    """Split ``n`` resources over ``shards`` exactly (largest remainder).

    ``weights`` (default: uniform) are read exactly — floats via their
    decimal literal, like the policy capacity splits — so ``[0.3, 0.7]``
    of 10 is ``[3, 7]``, never off-by-one from binary rounding.  Every
    shard must end up with at least one resource; remainder ties go to
    lower shard ids (deterministic).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n < shards:
        raise ValueError(
            f"cannot split {n} resources over {shards} shards: "
            f"every shard needs at least one resource"
        )
    if weights is None:
        weights = [1] * shards
    if len(weights) != shards:
        raise ValueError(f"expected {shards} weights, got {len(weights)}")
    exact = [_exact_fraction(w) for w in weights]
    if any(w <= 0 for w in exact):
        raise ValueError("shard weights must be positive")
    total = sum(exact)
    shares = [Fraction(n) * w / total for w in exact]
    floors = [int(s) for s in shares]  # Fraction floors toward zero; s >= 0
    remainders = [s - f for s, f in zip(shares, floors)]
    leftover = n - sum(floors)
    # Largest remainder first; ties broken by shard id for determinism.
    order = sorted(range(shards), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    if min(floors) < 1:
        raise ValueError(
            f"weights {list(weights)!r} starve a shard of {n} resources: "
            f"split came out as {floors}"
        )
    return floors


class AdmissionError(ValueError):
    """A rejected submit batch; ``reason`` is machine-readable.

    ``index`` points at the offending job's position within the batch
    (None when the violation is batch-wide, e.g. backpressure).
    """

    def __init__(self, reason: str, message: str, index: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.index = index


class SessionShard:
    """One shard: a live sequence driving one stock simulator."""

    def __init__(
        self,
        shard_id: int,
        n: int,
        delta: int | float,
        policy: Policy,
        speed: int = 1,
        telemetry: Recorder | None = None,
        name: str = "serve",
        engine: str = "incremental",
    ):
        self.shard_id = shard_id
        self.engine = resolve_engine(engine)
        self.live = LiveSequence()
        self.instance = self.live.as_instance(
            delta, name=f"{name}/shard{shard_id}"
        )
        try:
            self.sim = make_simulator(
                self.instance,
                policy,
                n,
                engine=self.engine,
                speed=speed,
                record_events=True,
                telemetry=telemetry,
            )
        except ValueError as exc:
            # Policies with structural capacity requirements (DeltaLRU needs
            # even n, DeltaLRU-EDF needs n % 4 == 0) reject some splits;
            # say which shard's slice was the problem.
            raise ValueError(
                f"shard {shard_id} got capacity {n}, which "
                f"{type(policy).__name__} rejects: {exc}; adjust n, the "
                f"shard count, or the shard weights"
            ) from None

    @property
    def n(self) -> int:
        return self.sim.n

    @property
    def pending(self) -> int:
        """Jobs pending inside the simulator plus jobs buffered ahead."""
        return self.sim.pending.pending_count() + self.live.buffered

    def step(self, rnd: int) -> dict:
        """Run one round; returns this shard's slice of the result frame."""
        mark = len(self.sim.events)
        self.sim.step(rnd)
        executed: list[int] = []
        dropped: list[int] = []
        recolored = 0
        for event in self.sim.events.since(mark):
            if isinstance(event, ExecutionEvent):
                executed.append(event.job.uid)
            elif isinstance(event, DropEvent):
                dropped.append(event.job.uid)
            elif isinstance(event, ReconfigEvent):
                recolored += 1
        ledger = self.sim.ledger
        cost = (
            ledger.reconfigs_per_round[rnd] * ledger.delta
            + ledger.drops_per_round[rnd]
        )
        return {
            "executed": sorted(executed),
            "dropped": sorted(dropped),
            "recolored": recolored,
            "cost": cost,
        }

    def digests(self) -> dict[str, str]:
        """Component digests of the run so far (the stats frame payload)."""
        sim = self.sim
        return component_digests(
            sim.ledger,
            sim.schedule,
            sim.events,
            sim.executed_uids,
            sim.dropped_uids,
        )

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "n": self.n,
            # Completed rounds so far (>= 0): next_round is the round the
            # next tick will run, so it doubles as the completed count.
            "round": self.live.next_round,
            "jobs": self.live.num_jobs,
            "pending": self.pending,
            "ledger": self.sim.ledger.summary(),
            "digests": self.digests(),
        }


class ShardedSession:
    """``S`` lockstep shards behind one admission gate and round clock.

    ``policy_factory`` is called once per shard (policies carry run
    state, so shards must not share one instance).  ``max_pending``
    bounds each shard's in-flight jobs (pending in the simulator plus
    buffered for future rounds); a submit that would push any target
    shard over the bound is rejected whole with reason ``backpressure``.
    """

    def __init__(
        self,
        n: int,
        delta: int | float,
        policy_factory: Callable[[], Policy],
        shards: int = 1,
        speed: int = 1,
        max_pending: int = 10_000,
        weights: Sequence[int | float] | None = None,
        telemetry: Recorder | None = None,
        name: str = "serve",
        engine: str = "incremental",
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.n = n
        self.delta = delta
        self.speed = speed
        self.engine = resolve_engine(engine)
        self.max_pending = max_pending
        self.capacities = split_capacity(n, shards, weights)
        self.shards = [
            SessionShard(
                i,
                cap,
                delta,
                policy_factory(),
                speed=speed,
                telemetry=telemetry,
                name=name,
                engine=self.engine,
            )
            for i, cap in enumerate(self.capacities)
        ]
        self._seen_uids: set[int] = set()
        self._closed = False
        #: registration-time tenant admission (BDR composition against the
        #: shard capacities above) plus per-tenant counters.
        self.tenants = TenantDirectory(
            shards=len(self.shards),
            capacities=self.capacities,
            speed=speed,
            delta=int(delta),
        )
        self._meters = [ShardTenantMeter() for _ in self.shards]
        #: jobs shed from the last successful validate
        #: (``{"index", "uid", "tenant"}``, sorted by batch index) and the
        #: jobs that survived it, in batch order.  With no tenants
        #: registered, ``last_shed`` is always empty and ``last_kept`` is
        #: the batch itself.
        self.last_shed: list[dict] = []
        self.last_kept: list[Job] = []
        #: per-shard admission votes from the last successful validate
        #: (``{"shard", "verdict", "jobs", "trace"}``); the server turns
        #: these into ``admit`` spans.  Purely observational.
        self.last_admission_votes: list[dict] = []
        #: per-shard result parts from the last tick, keyed by shard id;
        #: the server turns these into ``execute``/``drop`` spans with
        #: shard coordinates the merged result frame no longer carries.
        self.last_tick_parts: dict[int, dict] = {}

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def round(self) -> int:
        """The next round to tick (all shards advance in lockstep)."""
        return self.shards[0].live.next_round

    @property
    def pending(self) -> int:
        return sum(shard.pending for shard in self.shards)

    @property
    def closed(self) -> bool:
        return self._closed

    def shard_for(self, color: Color) -> SessionShard:
        return self.shards[shard_of(color, len(self.shards))]

    def validate(self, jobs: Sequence[Job], trace: str | None = None) -> None:
        """Phase 1 of admission: check every rule, touch no state.

        Raises :class:`AdmissionError` on the first violation (lowest
        batch index; for one index, sequence rules beat batch-bound
        consistency beat duplicate detection).  A batch that validates
        cleanly is guaranteed to :meth:`commit` — the split exists so
        the server can write the journal intent between the two phases.

        ``trace`` is an opaque request id threaded through for span
        tracing; it never influences any admission decision.

        With tenants registered, per-tenant shedding runs *first*: jobs an
        over-rate tenant cannot afford are recorded in ``last_shed`` (pure
        bucket simulation — nothing is debited until commit) and every
        admission rule then runs on the surviving jobs only, so a
        compliant tenant's outcome is independent of any other tenant's
        flood.  ``last_kept`` holds the survivors in batch order; callers
        must commit exactly that list.
        """
        self.last_admission_votes = []
        self.last_shed = []
        self.last_kept = list(jobs)
        if self._closed:
            raise AdmissionError("closed", "session is closed")
        indexed = list(enumerate(jobs))
        if not self.tenants.empty:
            indexed = self._plan_sheds(indexed)
        bounds: dict[Color, int] = {}
        load: dict[int, int] = {}
        batch_uids: set[int] = set()
        for index, job in indexed:
            shard = self.shards[shard_of(job.color, len(self.shards))]
            try:
                shard.live.check(job.color, job.arrival, job.delay_bound)
            except LiveSequenceError as exc:
                raise AdmissionError(
                    exc.reason, f"job {job.uid}: {exc}", index
                ) from None
            prev = bounds.setdefault(job.color, job.delay_bound)
            if prev != job.delay_bound:
                raise AdmissionError(
                    "inconsistent_delay_bound",
                    f"job {job.uid}: color {job.color!r} appears in this "
                    f"batch with delay bounds {prev} and {job.delay_bound}",
                    index,
                )
            if job.uid in self._seen_uids or job.uid in batch_uids:
                raise AdmissionError(
                    "duplicate_uid",
                    f"job uid {job.uid} was already submitted",
                    index,
                )
            batch_uids.add(job.uid)
            load[shard.shard_id] = load.get(shard.shard_id, 0) + 1
        for shard_id, extra in load.items():
            shard = self.shards[shard_id]
            if shard.pending + extra > self.max_pending:
                raise AdmissionError(
                    "backpressure",
                    f"shard {shard_id} would hold {shard.pending + extra} "
                    f"in-flight jobs (limit {self.max_pending}); retry after "
                    f"ticking",
                )
        self.last_admission_votes = [
            {"shard": sid, "verdict": "ok", "jobs": load[sid], "trace": trace}
            for sid in sorted(load)
        ]

    def _plan_sheds(self, indexed: list[tuple[int, Job]]) -> list[tuple[int, Job]]:
        """Per-shard, per-tenant shed planning (pure).  Fills ``last_shed``
        and ``last_kept`` and returns the surviving (index, job) pairs in
        batch order."""
        per_shard: dict[int, list[tuple[int, Job]]] = {}
        for index, job in indexed:
            sid = shard_of(job.color, len(self.shards))
            per_shard.setdefault(sid, []).append((index, job))
        kept: list[tuple[int, Job]] = []
        shed: list[dict] = []
        for sid in sorted(per_shard):
            shard_kept, shard_shed = self._meters[sid].plan(per_shard[sid])
            kept.extend(shard_kept)
            shed.extend(shard_shed)
        kept.sort(key=lambda pair: pair[0])
        shed.sort(key=lambda entry: entry["index"])
        self.last_shed = shed
        self.last_kept = [job for _, job in kept]
        return kept

    def commit(self, jobs: Sequence[Job]) -> None:
        """Phase 2 of admission: buffer a *validated* batch on its shards.

        Preserves batch order within each shard.  Callers must have run
        :meth:`validate` on exactly this batch with no mutation in
        between — with tenants registered that means committing
        ``last_kept``, not the raw batch; commit itself cannot fail.
        Tenant buckets are debited here (never during validation), so a
        batch another rule rejects leaves the meters untouched.
        """
        metered = not self.tenants.empty
        for job in jobs:
            sid = shard_of(job.color, len(self.shards))
            self.shards[sid].live.push(job)
            if metered:
                self._meters[sid].debit((job,))
        self._seen_uids.update(job.uid for job in jobs)

    def submit(self, jobs: Sequence[Job]) -> list[dict]:
        """Admit a batch atomically; raises :class:`AdmissionError`.

        Either every non-shed job is accepted (and buffered on its color's
        shard, in batch order) or none is — partial admission would make
        replay verification impossible.  Returns the shed list (empty with
        no tenants registered).
        """
        self.validate(jobs)
        self.commit(self.last_kept)
        return self.last_shed

    def register_tenant(self, contract: TenantContract) -> list[dict]:
        """Admit a tenant against the shard BDR interfaces and install its
        per-shard token buckets.  Raises
        :class:`~repro.serve.tenants.TenantError` with a structured reason
        (``rate_overflow``, ``delay_too_tight``, ``color_conflict``, ...)
        if the contract is unschedulable; on success returns the per-shard
        placement.  Use ``self.tenants.check(contract)`` first when a
        journal record must land between decision and installation."""
        placement = self.tenants.admit(contract)
        num = len(self.shards)
        for sid, (rate, burst) in shard_shares(contract, num).items():
            colors = [c for c in contract.colors if shard_of(c, num) == sid]
            self._meters[sid].register(contract.name, colors, rate, burst)
        return placement

    def tenant_stats(self) -> list[dict]:
        """Per-tenant contracts and submitted/admitted/shed counters."""
        return self.tenants.stats()

    def tick(self) -> dict:
        """Advance every shard one round; returns the merged result frame."""
        rnd = self.round
        executed: list[int] = []
        dropped: list[int] = []
        recolored = 0
        cost: int | float = 0
        self.last_tick_parts = {}
        for shard in self.shards:
            part = shard.step(rnd)
            self.last_tick_parts[shard.shard_id] = part
            executed.extend(part["executed"])
            dropped.extend(part["dropped"])
            recolored += part["recolored"]
            cost += part["cost"]
        if not self.tenants.empty:
            for meter in self._meters:
                meter.refill()
        return {
            "round": rnd,
            "executed": sorted(executed),
            "dropped": sorted(dropped),
            "recolored": recolored,
            "cost": cost,
            "pending": self.pending,
        }

    def drain_horizon(self) -> int:
        """First round by which no shard has any job left in flight."""
        return max(shard.live.drain_horizon() for shard in self.shards)

    def stats(self) -> dict:
        return {
            # Count of completed rounds (>= 0), never -1 before first tick.
            "round": self.round,
            "shards": [shard.stats() for shard in self.shards],
            "pending": self.pending,
            "jobs": sum(s.live.num_jobs for s in self.shards),
            "closed": self._closed,
        }

    def close(self) -> None:
        self._closed = True
        for shard in self.shards:
            shard.live.close()

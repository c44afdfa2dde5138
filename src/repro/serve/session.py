"""Sharded live scheduling sessions.

One session = ``S`` independent simulators, each owning a
:class:`~repro.core.live.LiveSequence` and a slice of the ``n``
resources.  Jobs are routed to shards by hashing their color, so every
color's full pending pool lives on exactly one shard and the per-color
semantics (delay bound ``D_l``, counter machinery, EDF order within a
color) are untouched by sharding.  The capacity split is even, with the
remainder on the lowest shard ids.

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
:class:`AdmissionGate` is that one admission implementation; both
:class:`ShardedSession` and the multi-process
:class:`~repro.serve.workers.WorkerShardedSession` run it in the
frontend.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Callable, Iterable, Sequence

from repro.core.bdr import exact_fraction
from repro.core.digest import component_digests
from repro.core.engine import make_simulator, resolve_engine
from repro.core.job import Color, Job
from repro.core.live import LiveSequence, LiveSequenceError
from repro.core.simulator import Policy
from repro.serve.tenants import (
    ShardTenantMeter,
    TenantContract,
    TenantDirectory,
    shard_shares,
)
from repro.telemetry.recorder import Recorder

__all__ = [
    "AdmissionError",
    "AdmissionGate",
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


def split_capacity(n: int, shards: int) -> list[int]:
    """Split ``n`` resources evenly over ``shards``.

    The remainder goes to the lowest shard ids, one resource each
    (deterministic).  Every shard must end up with at least one resource.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n < shards:
        raise ValueError(
            f"cannot split {n} resources over {shards} shards: "
            f"every shard needs at least one resource"
        )
    base, extra = divmod(n, shards)
    return [base + 1 if i < extra else base for i in range(shards)]


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
                f"{type(policy).__name__} rejects: {exc}; adjust n or the "
                f"shard count"
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
        sim = self.sim
        sim.step(rnd)
        ledger = sim.ledger
        cost = (
            ledger.reconfigs_per_round[rnd] * ledger.delta
            + ledger.drops_per_round[rnd]
        )
        return {
            "executed": sorted([job.uid for _, job in sim.last_executed]),
            "dropped": sorted([job.uid for job in sim.last_dropped]),
            "recolored": sim.last_recolored,
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


class AdmissionGate:
    """Submit admission, shared by both session classes.

    Holds everything a submit is checked against: one
    :class:`~repro.core.live.LiveSequence` per shard (``_lives``), the
    tenant directory and per-shard token-bucket meters, the seen-uid set
    and per-shard in-flight counts (backpressure).  :class:`ShardedSession`
    passes its shards' own live sequences; ``WorkerShardedSession`` passes
    frontend mirrors that advance with ``request(rnd)`` at every tick
    while its workers hold the real ones.  Either way one implementation
    decides every accept, reject and shed, so the two session classes
    agree by construction.
    """

    def __init__(
        self,
        lives: Sequence[LiveSequence],
        capacities: Sequence[int],
        speed: int,
        delta: int | float,
        max_pending: int,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self._lives = list(lives)
        #: jobs committed to each shard and not yet executed or dropped.
        self._in_flight = [0] * len(self._lives)
        self._seen_uids: set[int] = set()
        self._closed = False
        #: shard id of each kept job of the last successful validate, in
        #: batch order; None once committed (or after a failed validate).
        self._validated: list[int] | None = None
        #: registration-time tenant admission (BDR composition against the
        #: shard capacities) plus per-tenant counters.
        self.tenants = TenantDirectory(
            shards=len(self._lives),
            capacities=capacities,
            speed=speed,
            delta=exact_fraction(delta),
        )
        self._meters = [ShardTenantMeter() for _ in self._lives]
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
        return len(self._lives)

    @property
    def round(self) -> int:
        """The next round to tick (all shards advance in lockstep)."""
        return self._lives[0].next_round

    @property
    def pending(self) -> int:
        return sum(self._in_flight)

    @property
    def closed(self) -> bool:
        return self._closed

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
        self._validated = None
        if self._closed:
            raise AdmissionError("closed", "session is closed")
        lives = self._lives
        sids = [shard_of(job.color, len(lives)) for job in self.last_kept]
        indexed: Iterable[tuple[int, Job]] = enumerate(self.last_kept)
        if not self.tenants.empty:
            indexed = self._plan_sheds(sids)
            sids = [sids[index] for index, _ in indexed]
        seen = self._seen_uids
        bounds: dict[Color, int] = {}
        batch_uids: set[int] = set()
        for (index, job), sid in zip(indexed, sids):
            try:
                lives[sid].check(job.color, job.arrival, job.delay_bound)
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
            if job.uid in seen or job.uid in batch_uids:
                raise AdmissionError(
                    "duplicate_uid",
                    f"job uid {job.uid} was already submitted",
                    index,
                )
            batch_uids.add(job.uid)
        # Shards in order of first appearance in the batch.
        load = Counter(sids)
        for shard_id, extra in load.items():
            held = self._in_flight[shard_id] + extra
            if held > self.max_pending:
                raise AdmissionError(
                    "backpressure",
                    f"shard {shard_id} would hold {held} "
                    f"in-flight jobs (limit {self.max_pending}); retry after "
                    f"ticking",
                )
        self.last_admission_votes = [
            {"shard": sid, "verdict": "ok", "jobs": load[sid], "trace": trace}
            for sid in sorted(load)
        ]
        self._validated = sids

    def _plan_sheds(self, sids: list[int]) -> list[tuple[int, Job]]:
        """Per-shard, per-tenant shed planning (pure) over ``last_kept``,
        whose jobs live on shards ``sids``.  Fills ``last_shed`` and
        ``last_kept`` and returns the surviving (index, job) pairs in
        batch order."""
        per_shard: dict[int, list[tuple[int, Job]]] = {}
        for index, (job, sid) in enumerate(zip(self.last_kept, sids)):
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

    def commit(self, jobs: Sequence[Job]) -> dict[int, list[Job]]:
        """Phase 2 of admission: buffer a *validated* batch on its shards.

        Preserves batch order within each shard: each shard's slice goes
        in with one :meth:`LiveSequence.push_checked
        <repro.core.live.LiveSequence.push_checked>`, routed by the shard
        ids :meth:`validate` computed, so no job is checked or hashed
        twice.  Callers must have run :meth:`validate` on exactly this
        batch with no mutation in between — with tenants registered that
        means committing ``last_kept``, not the raw batch; commit itself
        cannot fail.
        Tenant buckets are debited here (never during validation), so a
        batch another rule rejects leaves the meters untouched.  Returns
        the per-shard slices, in order of first appearance.
        """
        if self._validated is None:
            raise RuntimeError("commit without a matching validate")
        sids, self._validated = self._validated, None
        if len(sids) != len(jobs):
            raise RuntimeError("commit batch does not match validated batch")
        slices: dict[int, list[Job]] = {}
        for sid, job in zip(sids, jobs):
            slices.setdefault(sid, []).append(job)
        metered = not self.tenants.empty
        for sid, part in slices.items():
            self._lives[sid].push_checked(part)
            self._in_flight[sid] += len(part)
            if metered:
                self._meters[sid].debit(part)
        self._seen_uids.update([job.uid for job in jobs])
        return slices

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
        num = len(self._lives)
        for sid, (rate, burst) in shard_shares(contract, num).items():
            colors = [c for c in contract.colors if shard_of(c, num) == sid]
            self._meters[sid].register(contract.name, colors, rate, burst)
        return placement

    def tenant_stats(self) -> list[dict]:
        """Per-tenant contracts and submitted/admitted/shed counters."""
        return self.tenants.stats()

    def _settle(self, rnd: int, parts: dict[int, dict]) -> dict:
        """Book one finished round's per-shard parts (in shard order):
        retire executed and dropped jobs, refill the tenant buckets, and
        return the merged result frame."""
        executed: list[int] = []
        dropped: list[int] = []
        recolored = 0
        cost: int | float = 0
        self.last_tick_parts = parts
        for sid, part in parts.items():
            executed.extend(part["executed"])
            dropped.extend(part["dropped"])
            recolored += part["recolored"]
            cost += part["cost"]
            self._in_flight[sid] -= len(part["executed"]) + len(part["dropped"])
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
        return max(live.drain_horizon() for live in self._lives)

    def close(self) -> None:
        self._closed = True
        for live in self._lives:
            live.close()


class ShardedSession(AdmissionGate):
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
        telemetry: Recorder | None = None,
        name: str = "serve",
        engine: str = "incremental",
    ):
        self.n = n
        self.delta = delta
        self.speed = speed
        self.engine = resolve_engine(engine)
        self.capacities = split_capacity(n, shards)
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
        super().__init__(
            [shard.live for shard in self.shards],
            self.capacities,
            speed,
            delta,
            max_pending,
        )

    def shard_for(self, color: Color) -> SessionShard:
        return self.shards[shard_of(color, len(self.shards))]

    def tick(self) -> dict:
        """Advance every shard one round; returns the merged result frame."""
        rnd = self.round
        return self._settle(
            rnd, {shard.shard_id: shard.step(rnd) for shard in self.shards}
        )

    def stats(self) -> dict:
        return {
            # Count of completed rounds (>= 0), never -1 before first tick.
            "round": self.round,
            "shards": [shard.stats() for shard in self.shards],
            "pending": self.pending,
            "jobs": sum(s.live.num_jobs for s in self.shards),
            "closed": self._closed,
        }

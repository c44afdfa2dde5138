"""Multi-process serve: one supervised worker process per shard.

:class:`~repro.serve.session.ShardedSession` runs every shard in
lockstep on one core, so adding shards *slows the server down* — each
tick is a serial loop over simulators.  This module moves each
:class:`~repro.serve.session.SessionShard` into its own child process
built on the PR-4 supervisor plumbing (:class:`repro.utils.procs.PipeWorker`:
duplex pipes, ``connection.wait``, SIGKILL + respawn), while
:class:`WorkerShardedSession` keeps the exact public surface of
``ShardedSession`` so the asyncio server is mode-agnostic.

**Cross-worker two-phase admission.**  ``submit`` keeps the atomic
batch contract across processes:

- *Phase 1 (validate)*: the parent runs the batch-wide rules it alone
  can see (within-batch delay-bound consistency, global duplicate uids,
  per-shard backpressure from its own pending ledger), and every target
  worker checks its sub-batch against its live sequence (round
  staleness, delay-bound-vs-history, closed) — the same split as
  ``ShardedSession``'s pass 1, so the *first* violation by batch index
  wins with the same tie order (sequence rules, then batch bounds, then
  duplicates).  A validated sub-batch is cached worker-side under the
  batch's ``seq``.
- *Phase 2 (commit)*: only if every verdict was yes, the parent fires
  ``commit(seq)`` at each target — commit-by-reference, no job bytes on
  the wire — and the workers push their cached sub-batches.  A rejected
  batch leaves no trace on any shard: phase 1 mutates nothing anywhere.

Commits are pipelined (fire-and-forget): the parent does not block on
commit acks, it drains them before the next blocking exchange.  Commit
cannot fail after validation, so the ack carries no information beyond
liveness — this halves the blocking round-trips per submit+tick cycle.

**Failover.**  The journal (:mod:`repro.serve.journal`) is write-ahead:
the submit intent and its commit marker are on disk *before* any commit
reaches a worker, and round records land only after every shard
finished the round.  So when a worker dies (EOF/EPIPE) or hangs past
``timeout`` (SIGKILL), the parent respawns it with
``attempt + 1`` and the child rebuilds its entire
``LiveSequence``/policy/simulator state by replaying the journal
filtered to its colors — byte-identical, digest for digest, to a shard
that never died.  The parent then re-issues only the in-flight
*blocking* op: a replayed worker already owns every marked batch, so
commits are never re-sent (an unknown ``seq`` commit is a no-op), and
the pending tick/validate re-runs against the replayed state
deterministically.  Retries are bounded (``retries`` per worker per op)
with the supervisor's deterministic
:func:`~repro.utils.procs.retry_backoff` delays; past the bound the
session raises and refuses further use.

Fault injection reuses the PR-4 plans: each worker op checks the label
``serve/shard{id}/{op}/{seq}`` (fnmatch, so ``serve/shard1/tick/*``
kills shard 1 at its next tick), and workers mark themselves so
hang/kill act for real.  Replay runs *before* injection is consulted —
a recovering worker must not be re-killed by the rule that killed it.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Sequence

from repro import faults
from repro.core.engine import resolve_engine
from repro.core.job import Color, Job
from repro.core.live import LiveSequenceError
from repro.policies import make_policy
from repro.serve.journal import read_records, replay_shard
from repro.serve.session import (
    AdmissionError,
    SessionShard,
    shard_of,
    split_capacity,
)
from repro.serve.tenants import (
    ShardTenantMeter,
    TenantContract,
    TenantDirectory,
    shard_shares,
)
from repro.telemetry.recorder import (
    Recorder,
    TelemetryRecorder,
    get_recorder,
    set_recorder,
)
from repro.utils.procs import PipeWorker, retry_backoff

__all__ = ["WorkerShardedSession"]


def _job_from_tuple(data: tuple) -> Job:
    color, arrival, delay_bound, uid = data
    return Job(color=color, arrival=arrival, delay_bound=delay_bound, uid=uid)


def _shard_worker_main(
    conn,
    shard_id: int,
    shards: int,
    params: dict,
    journal_path: str | None,
    fault_plan_json: str | None,
    attempt: int,
) -> None:
    """Worker loop: one shard, driven by ``(op, seq, payload)`` messages.

    Runs in the child process.  Replies are ``(kind, seq, payload)``;
    the ``None`` sentinel shuts down.  Any uncaught exception kills the
    process — the parent sees EOF and handles it as a crash, which is
    exactly what injected ``raise`` faults are meant to exercise.
    """
    faults.mark_worker()
    if fault_plan_json:
        faults.install_plan(faults.FaultPlan.from_json(fault_plan_json))
    # Child-process telemetry: when the parent records, so does the
    # worker — its engine counters would otherwise vanish with the
    # process.  Snapshots ship home on the ``metrics`` op; the recorder
    # is also installed process-globally so every engine-layer
    # ``get_recorder()`` lands here.
    recorder: TelemetryRecorder | None = None
    if params.get("telemetry"):
        recorder = TelemetryRecorder()
        set_recorder(recorder)
    try:
        policy = make_policy(
            params["policy"],
            params["delta"],
            incremental=params["engine"] != "reference",
        )
        shard = SessionShard(
            shard_id,
            params["capacity"],
            params["delta"],
            policy,
            speed=params["speed"],
            engine=params["engine"],
            name=params["name"],
            telemetry=recorder,
        )
        # Tenant token buckets for this shard; rebuilt by replay on a
        # respawn (registration fills, marked submits debit, rounds
        # refill — sheds never reach the journal, so the fold is exact).
        meter = ShardTenantMeter()
        replayed = 0
        if journal_path is not None:
            # Recovery: rebuild the dead predecessor's state.  No fault
            # is consulted during replay, or the rule that killed the
            # worker would kill every successor too.
            replayed = replay_shard(
                read_records(journal_path), shard, shards, meter=meter
            )
    except Exception as exc:
        try:
            conn.send(
                ("init_error", -1, f"{type(exc).__name__}: {exc}")
            )
        finally:
            conn.close()
        return
    conn.send(("ready", -1, {"round": shard.live.next_round, "replayed": replayed}))

    batches: dict[int, list[Job]] = {}
    last_tick: tuple[int, dict] | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        op, seq, payload = message
        faults.maybe_inject(f"serve/shard{shard_id}/{op}/{seq}", attempt)
        if op == "validate":
            # Payload: {"jobs": [(index, job-tuple), ...], "trace": id?}.
            # The trace id rides the pipe both ways so an admission vote
            # is attributable to its originating submit; it never feeds
            # the admission decision.
            trace = payload.get("trace")
            verdict: tuple | None = None
            indexed = [
                (index, _job_from_tuple(data))
                for index, data in payload["jobs"]
            ]
            # Tenant shed planning first (pure — buckets untouched until
            # commit): every further check sees only the kept jobs, and
            # the shed list rides home inside this shard's vote.
            kept_pairs, shed = meter.plan(indexed)
            jobs: list[Job] = []
            for index, job in kept_pairs:
                try:
                    shard.live.check(job.color, job.arrival, job.delay_bound)
                except LiveSequenceError as exc:
                    verdict = (exc.reason, f"job {job.uid}: {exc}", index)
                    break
                jobs.append(job)
            if verdict is None:
                # The server serializes submits, so at most one batch is
                # ever awaiting commit: replacing the cache also evicts
                # any batch whose validation failed on another shard.
                batches = {seq: jobs}
                conn.send((
                    "ok",
                    seq,
                    {"jobs": len(jobs), "trace": trace, "shed": shed},
                ))
            else:
                batches = {}
                conn.send(("reject", seq, verdict))
        elif op == "commit":
            # Unknown seq = this worker was respawned after the batch's
            # marker hit the journal, so replay already applied it.
            batch = batches.pop(seq, [])
            shard.live.push_many(batch)
            meter.debit(batch)
            conn.send(("ok", seq, None))
        elif op == "tick":
            if last_tick is not None and last_tick[0] == payload:
                part = last_tick[1]  # duplicate delivery; replay already ran it
            else:
                t0 = time.perf_counter()
                part = shard.step(payload)
                meter.refill()
                if recorder is not None:
                    # The worker-side round latency; relabeled with this
                    # shard's identity when the frontend scrapes it, so
                    # `repro top` can show a real per-shard tick p95.
                    recorder.observe(
                        "repro_serve_round_seconds", time.perf_counter() - t0
                    )
                last_tick = (payload, part)
            conn.send(("result", seq, part))
        elif op == "tenant":
            # Install this shard's share of an admitted contract.  The
            # parent journals the registration before fanning this op
            # out, and re-delivery after a respawn is idempotent: replay
            # already registered the tenant with a full bucket and no
            # submit of its colors can precede its registration.
            contract = TenantContract.from_dict(payload)
            shares = shard_shares(contract, shards)
            if shard_id in shares:
                rate, burst = shares[shard_id]
                colors = [
                    c
                    for c in contract.colors
                    if shard_of(c, shards) == shard_id
                ]
                meter.register(contract.name, colors, rate, burst)
            conn.send(("ok", seq, None))
        elif op == "stats":
            conn.send(("stats", seq, shard.stats()))
        elif op == "metrics":
            conn.send((
                "metrics",
                seq,
                recorder.snapshot() if recorder is not None else {},
            ))
        elif op == "digests":
            conn.send(("digests", seq, shard.digests()))
        elif op == "close":
            shard.live.close()
            conn.send(("ok", seq, None))
        else:
            conn.send(("error", seq, f"unknown op {op!r}"))
    conn.close()


class _ShardWorker:
    """Parent-side handle: the pipe lifecycle plus respawn bookkeeping."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.attempt = 0  # spawn counter; feeds fault-injection attempt
        self.worker: PipeWorker | None = None
        #: fire-and-forget commit seqs whose acks are still in the pipe.
        self.outstanding: set[int] = set()
        #: rounds the current incarnation replayed from the journal at
        #: spawn (0 for the first spawn) and the round it came up at.
        self.replayed = 0
        self.ready_round = 0
        #: session round at the moment of the last (re)spawn — with
        #: ``ready_round`` this gives the journal-replay lag /healthz shows.
        self.spawn_session_round = 0


class WorkerShardedSession:
    """``S`` shard worker processes behind the ``ShardedSession`` surface.

    Constructor intentionally takes the *policy name*, not a factory:
    the policy is built inside each worker (policies carry run state and
    never cross the pipe).  ``journal_path`` is mandatory — it is the
    failover substrate; without a journal a dead shard could not be
    rebuilt and the session would silently diverge.
    """

    def __init__(
        self,
        n: int,
        delta: int | float,
        policy: str,
        journal_path: str,
        shards: int = 1,
        speed: int = 1,
        max_pending: int = 10_000,
        weights: Sequence[int | float] | None = None,
        telemetry: Recorder | None = None,
        name: str = "serve",
        engine: str = "incremental",
        retries: int = 2,
        timeout: float = 30.0,
        backoff_seed: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        fault_plan_json: str | None = None,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not journal_path:
            raise ValueError(
                "WorkerShardedSession needs a journal_path: the write-ahead "
                "journal is what failover replays"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.n = n
        self.delta = delta
        self.speed = speed
        self.engine = resolve_engine(engine)
        self.max_pending = max_pending
        self.capacities = split_capacity(n, shards, weights)
        self.journal_path = journal_path
        self.telemetry = telemetry if telemetry is not None else get_recorder()
        self.retries = retries
        self.timeout = timeout
        self.backoff_seed = backoff_seed
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.fault_plan_json = fault_plan_json
        self._params_base = {
            "delta": delta,
            "policy": policy,
            "speed": speed,
            "engine": self.engine,
            "name": name,
            # Children mirror the parent's recording decision so their
            # engine metrics exist to be scraped over the pipe.
            "telemetry": self.telemetry.enabled,
        }
        self._ctx = mp.get_context()
        self._seq = 0
        self._round = 0
        self._jobs = 0
        self._max_deadline = 0
        self._pending = [0] * shards
        #: color -> shard id (blake2b routing memoized; sessions see a
        #: bounded palette, and every shard already keeps per-color state).
        self._sid_cache: dict[Color, int] = {}
        self._seen_uids: set[int] = set()
        self._ready_commit: tuple[int, list[int], dict[int, int]] | None = None
        self._closed = False
        self._failed: str | None = None
        #: same observational surfaces as ShardedSession (span sources).
        self.last_admission_votes: list[dict] = []
        self.last_tick_parts: dict[int, dict] = {}
        #: registration-time tenant admission lives frontend-side (the
        #: BDR check needs the whole capacity picture); runtime token
        #: buckets live in the workers and vote their sheds over the pipe.
        self.tenants = TenantDirectory(
            shards=shards,
            capacities=self.capacities,
            speed=speed,
            delta=int(delta),
        )
        self.last_shed: list[dict] = []
        self.last_kept: list[Job] = []
        self._workers = [_ShardWorker(i) for i in range(shards)]
        try:
            for wk in self._workers:
                self._spawn(wk, replay=False)
        except BaseException:
            self._shutdown_workers()
            raise

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, wk: _ShardWorker, replay: bool) -> None:
        """Start (or restart) one shard worker and await its handshake."""
        wk.attempt += 1
        wk.outstanding.clear()
        params = {
            **self._params_base,
            "capacity": self.capacities[wk.shard_id],
        }
        wk.worker = PipeWorker(
            self._ctx,
            _shard_worker_main,
            (
                wk.shard_id,
                len(self._workers),
                params,
                self.journal_path if replay else None,
                self.fault_plan_json,
                # 0-based like supervisor attempts: a default times=1 rule
                # hits the first incarnation and spares every respawn.
                wk.attempt - 1,
            ),
        )
        # Replay is bounded by the journal the parent just wrote, so the
        # op timeout (with a floor for process start) covers it.
        if not wk.worker.conn.poll(max(self.timeout, 10.0)):
            wk.worker.kill()
            raise RuntimeError(
                f"shard {wk.shard_id} worker did not come up "
                f"(attempt {wk.attempt})"
            )
        try:
            kind, _, payload = wk.worker.conn.recv()
        except (EOFError, OSError):
            wk.worker.kill()
            raise RuntimeError(
                f"shard {wk.shard_id} worker died during startup "
                f"(attempt {wk.attempt})"
            ) from None
        if kind != "ready":
            wk.worker.kill()
            if not replay:
                # Config problems (policy rejects the capacity split...)
                # surface like ShardedSession's constructor would.
                raise ValueError(str(payload))
            raise RuntimeError(
                f"shard {wk.shard_id} failed journal replay: {payload}"
            )
        if replay and payload["round"] > self._round:
            raise RuntimeError(
                f"shard {wk.shard_id} replayed past the session clock: "
                f"{payload['round']} > {self._round}"
            )
        wk.replayed = payload["replayed"]
        wk.ready_round = payload["round"]
        wk.spawn_session_round = self._round

    def _recover(self, wk: _ShardWorker, op: str, tries: dict[int, int]) -> None:
        """Kill + backoff + respawn-with-replay; raises past the retry bound."""
        tries[wk.shard_id] = tries.get(wk.shard_id, 0) + 1
        attempt = tries[wk.shard_id]
        wk.worker.kill()
        if attempt > self.retries:
            self._failed = (
                f"shard {wk.shard_id} unavailable after {attempt} "
                f"attempts of {op!r}"
            )
            raise RuntimeError(self._failed)
        if self.telemetry.enabled:
            self.telemetry.count(
                "repro_serve_worker_respawns_total", shard=str(wk.shard_id)
            )
        time.sleep(
            retry_backoff(
                self.backoff_seed,
                f"shard{wk.shard_id}/{op}",
                attempt,
                base=self.backoff_base,
                cap=self.backoff_cap,
            )
        )
        self._spawn(wk, replay=True)

    def _shutdown_workers(self) -> None:
        for wk in self._workers:
            if wk.worker is not None:
                try:
                    wk.worker.stop()
                except Exception:
                    pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._failed is None:
            try:
                self._exchange(self._workers, "close", lambda sid: None)
            except RuntimeError:
                pass
        self._shutdown_workers()

    def __enter__(self) -> "WorkerShardedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the pipe protocol (parent side) ---------------------------------------

    def _check_usable(self) -> None:
        if self._failed is not None:
            raise RuntimeError(f"session failed: {self._failed}")

    def _deliver(
        self,
        wk: _ShardWorker,
        op: str,
        seq: int,
        payload: object,
        tries: dict[int, int],
    ) -> None:
        while True:
            try:
                wk.worker.conn.send((op, seq, payload))
                return
            except (BrokenPipeError, OSError, ValueError):
                self._recover(wk, op, tries)

    def _exchange(
        self,
        targets: Sequence[_ShardWorker],
        op: str,
        payload_of,
        seq: int | None = None,
    ) -> dict[int, tuple[str, object]]:
        """One blocking fan-out: send ``op`` to every target, gather replies.

        Survives worker deaths (respawn + replay + re-send) and hangs
        (per-attempt ``timeout`` → SIGKILL → same recovery), with at
        most ``retries`` recoveries per worker.  Fire-and-forget commit
        acks encountered while waiting are drained here.
        """
        if seq is None:
            self._seq += 1
            seq = self._seq
        state = self._send_all(targets, op, payload_of, seq)
        return self._gather(state, op, payload_of, seq)

    def _send_all(
        self,
        targets: Sequence[_ShardWorker],
        op: str,
        payload_of,
        seq: int,
    ) -> tuple[dict, dict, dict]:
        """The send half of :meth:`_exchange`, exposed so ``validate``
        can overlap the workers' checks with its own batch-wide pass."""
        tries: dict[int, int] = {}
        pending: dict[int, _ShardWorker] = {wk.shard_id: wk for wk in targets}
        deadlines: dict[int, float] = {}
        for wk in pending.values():
            self._deliver(wk, op, seq, payload_of(wk.shard_id), tries)
            deadlines[wk.shard_id] = time.monotonic() + self.timeout
        return tries, pending, deadlines

    def _gather(
        self,
        state: tuple[dict, dict, dict],
        op: str,
        payload_of,
        seq: int,
    ) -> dict[int, tuple[str, object]]:
        tries, pending, deadlines = state
        replies: dict[int, tuple[str, object]] = {}
        while pending:
            conns = {wk.worker.conn: wk for wk in pending.values()}
            budget = min(deadlines[sid] for sid in pending) - time.monotonic()
            ready = _conn_wait(list(conns), timeout=max(budget, 0.0))
            if not ready:
                now = time.monotonic()
                for sid, wk in list(pending.items()):
                    if now >= deadlines[sid]:
                        self._recover(wk, op, tries)
                        self._deliver(wk, op, seq, payload_of(sid), tries)
                        deadlines[sid] = time.monotonic() + self.timeout
                continue
            for conn in ready:
                wk = conns[conn]
                try:
                    kind, rseq, payload = conn.recv()
                except (EOFError, OSError):
                    self._recover(wk, op, tries)
                    self._deliver(wk, op, seq, payload_of(wk.shard_id), tries)
                    deadlines[wk.shard_id] = time.monotonic() + self.timeout
                    continue
                if rseq != seq:
                    # A drained commit ack, or a stale reply from an
                    # attempt that timed out — both are droppable.
                    wk.outstanding.discard(rseq)
                    continue
                if kind == "error":
                    self._failed = f"shard {wk.shard_id}: {payload}"
                    raise RuntimeError(self._failed)
                replies[wk.shard_id] = (kind, payload)
                del pending[wk.shard_id]
        return replies

    def _fire(
        self, targets: Sequence[_ShardWorker], op: str, seq: int
    ) -> None:
        """Pipelined send with no reply wait (commit phase 2).

        A send failure means the worker died before the op arrived; the
        op's effect is already covered by the write-ahead journal, so
        recovery is respawn + replay with *no* re-send.
        """
        tries: dict[int, int] = {}
        for wk in targets:
            try:
                wk.worker.conn.send((op, seq, None))
                wk.outstanding.add(seq)
            except (BrokenPipeError, OSError, ValueError):
                self._recover(wk, op, tries)

    # -- the ShardedSession surface --------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._workers)

    @property
    def round(self) -> int:
        """The next round to tick (all shards advance in lockstep)."""
        return self._round

    @property
    def pending(self) -> int:
        return sum(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def validate(self, jobs: Sequence[Job], trace: str | None = None) -> None:
        """Phase 1 across workers; raises :class:`AdmissionError`.

        Parity with ``ShardedSession.validate``: the violation at the
        lowest batch index wins; for one index, the worker's sequence
        rules (priority 0) beat within-batch bound consistency (1) beat
        duplicate uids (2); backpressure applies only to otherwise-clean
        batches.

        ``trace`` crosses the pipe inside the validate payload and is
        echoed back in each worker's vote, so admission spans attribute
        the vote to the submit that caused it.

        With tenants registered, each worker's vote additionally carries
        the shed list its token buckets decided for its sub-batch; the
        parent merges them (``last_shed``/``last_kept``) and runs its
        batch-wide pass on the surviving jobs only — the same
        sheds-first ordering as ``ShardedSession``.
        """
        self._check_usable()
        self.last_admission_votes = []
        self.last_shed = []
        self.last_kept = list(jobs)
        if self._closed:
            raise AdmissionError("closed", "session is closed")
        # Route and ship the sub-batches first: the workers run their
        # sequence checks while the parent does its own batch-wide pass
        # below (on multi-core hosts the two genuinely overlap).
        sid_of = self._sid_cache
        sublists: dict[int, list] = {}
        for index, job in enumerate(jobs):
            sid = sid_of.get(job.color)
            if sid is None:
                sid = sid_of[job.color] = shard_of(job.color, self.num_shards)
            sublists.setdefault(sid, []).append(
                (index, (job.color, job.arrival, job.delay_bound, job.uid))
            )
        self._seq += 1
        seq = self._seq
        payload_of = lambda sid: {"jobs": sublists[sid], "trace": trace}
        if sublists:
            state = self._send_all(
                [self._workers[sid] for sid in sorted(sublists)],
                "validate",
                payload_of,
                seq,
            )
        replies: dict[int, tuple[str, object]] = {}
        shed_idx: set[int] = set()
        if not self.tenants.empty and sublists:
            # Sheds are decided inside the workers; the parent's
            # batch-wide pass must see only the kept jobs, so tenant mode
            # gathers the votes first (tenant-free submits keep the
            # overlapped fast path: gather after the parent pass).
            replies = self._gather(state, "validate", payload_of, seq)
            shed_all: list[dict] = []
            for sid in sorted(sublists):
                kind, payload = replies[sid]
                if kind == "ok":
                    shed_all.extend(payload.get("shed") or ())
            shed_all.sort(key=lambda entry: entry["index"])
            shed_idx = {entry["index"] for entry in shed_all}
            self.last_shed = shed_all
            self.last_kept = [
                job
                for index, job in enumerate(jobs)
                if index not in shed_idx
            ]
        bounds: dict[Color, int] = {}
        batch_uids: set[int] = set()
        candidates: list[tuple[int, int, AdmissionError]] = []
        for index, job in enumerate(jobs):
            if index in shed_idx:
                continue
            prev = bounds.setdefault(job.color, job.delay_bound)
            if prev != job.delay_bound:
                candidates.append((
                    index,
                    1,
                    AdmissionError(
                        "inconsistent_delay_bound",
                        f"job {job.uid}: color {job.color!r} appears in this "
                        f"batch with delay bounds {prev} and {job.delay_bound}",
                        index,
                    ),
                ))
            if job.uid in self._seen_uids or job.uid in batch_uids:
                candidates.append((
                    index,
                    2,
                    AdmissionError(
                        "duplicate_uid",
                        f"job uid {job.uid} was already submitted",
                        index,
                    ),
                ))
            batch_uids.add(job.uid)
        votes: list[dict] = []
        if sublists:
            if not replies:
                replies = self._gather(state, "validate", payload_of, seq)
            for sid in sorted(sublists):
                kind, payload = replies[sid]
                if kind == "reject":
                    reason, message, index = payload
                    candidates.append(
                        (index, 0, AdmissionError(reason, message, index))
                    )
                else:
                    votes.append({
                        "shard": sid,
                        "verdict": "ok",
                        "jobs": payload["jobs"],
                        "trace": payload["trace"],
                    })
        if candidates:
            candidates.sort(key=lambda item: (item[0], item[1]))
            raise candidates[0][2]
        # Per-shard load from the votes themselves: with tenants this is
        # the *kept* count (what commit will actually push), without
        # tenants it equals the routed sub-batch size exactly.
        load = {vote["shard"]: vote["jobs"] for vote in votes}
        for sid in sorted(load):
            if self._pending[sid] + load[sid] > self.max_pending:
                raise AdmissionError(
                    "backpressure",
                    f"shard {sid} would hold {self._pending[sid] + load[sid]} "
                    f"in-flight jobs (limit {self.max_pending}); retry after "
                    f"ticking",
                )
        self.last_admission_votes = votes
        self._ready_commit = (seq, sorted(sublists), load)

    def commit(self, jobs: Sequence[Job]) -> None:
        """Phase 2: commit the batch :meth:`validate` just cleared.

        Must follow a successful ``validate`` of the same batch with no
        session mutation in between (the server's synchronous frame
        handler guarantees this).  Fire-and-forget: workers push their
        cached sub-batches; acks drain at the next blocking exchange.
        """
        self._check_usable()
        if self._ready_commit is None:
            raise RuntimeError("commit without a matching validate")
        seq, shard_ids, load = self._ready_commit
        self._ready_commit = None
        if sum(load.values()) != len(jobs):
            raise RuntimeError("commit batch does not match validated batch")
        self._fire([self._workers[sid] for sid in shard_ids], "commit", seq)
        for sid, extra in load.items():
            self._pending[sid] += extra
        self._jobs += len(jobs)
        for job in jobs:
            self._seen_uids.add(job.uid)
            if job.deadline > self._max_deadline:
                self._max_deadline = job.deadline
        if jobs and self.telemetry.enabled:
            self.telemetry.count("repro_serve_worker_commits_total")

    def submit(self, jobs: Sequence[Job]) -> list[dict]:
        """Admit a batch atomically; raises :class:`AdmissionError`.

        Commits the jobs validation kept (all of them, tenant-free) and
        returns the shed list, mirroring ``ShardedSession.submit``.
        """
        self.validate(jobs)
        self.commit(self.last_kept)
        return self.last_shed

    def register_tenant(self, contract: TenantContract) -> list[dict]:
        """Admit a tenant frontend-side (the BDR composition check needs
        the whole capacity picture) and install its per-shard token
        buckets in every worker over the pipe.  Raises
        :class:`~repro.serve.tenants.TenantError` before anything is
        installed when the contract is unschedulable."""
        self._check_usable()
        placement = self.tenants.admit(contract)
        wire = contract.to_dict()
        self._exchange(self._workers, "tenant", lambda sid: wire)
        return placement

    def tenant_stats(self) -> list[dict]:
        """Per-tenant contracts and submitted/admitted/shed counters."""
        return self.tenants.stats()

    def tick(self) -> dict:
        """Advance every shard one round — in parallel across workers."""
        self._check_usable()
        rnd = self._round
        replies = self._exchange(self._workers, "tick", lambda sid: rnd)
        executed: list[int] = []
        dropped: list[int] = []
        recolored = 0
        cost: int | float = 0
        self.last_tick_parts = {}
        for wk in self._workers:
            kind, part = replies[wk.shard_id]
            self.last_tick_parts[wk.shard_id] = part
            executed.extend(part["executed"])
            dropped.extend(part["dropped"])
            recolored += part["recolored"]
            cost += part["cost"]
            self._pending[wk.shard_id] -= len(part["executed"]) + len(
                part["dropped"]
            )
        self._round = rnd + 1
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
        if self._jobs == 0:
            return self._round
        return max(self._round, self._max_deadline + 1)

    def shard_digests(self) -> list[dict[str, str]]:
        """Per-shard component digests (the determinism test surface)."""
        self._check_usable()
        replies = self._exchange(self._workers, "digests", lambda sid: None)
        return [replies[wk.shard_id][1] for wk in self._workers]

    def metrics_snapshots(
        self, budget: float | None = None
    ) -> tuple[dict[int, dict], list[int]]:
        """Soft-scrape every worker's telemetry snapshot.

        Returns ``(snapshots_by_shard, failed_shard_ids)``.  *Soft*
        means: unlike :meth:`_exchange`, a worker that is dead, wedged,
        or just slow is **not** killed or respawned — a metrics scrape
        must never be the thing that restarts a shard.  Workers that
        miss the ``budget`` deadline (default: min(op timeout, 1s))
        simply land in the failed list; their late replies carry a stale
        seq and are discarded by the next blocking exchange, exactly
        like drained commit acks.
        """
        if self._closed or self._failed is not None:
            return {}, [wk.shard_id for wk in self._workers]
        self._seq += 1
        seq = self._seq
        deadline = time.monotonic() + (
            budget if budget is not None else min(self.timeout, 1.0)
        )
        pending: dict[int, _ShardWorker] = {}
        for wk in self._workers:
            try:
                wk.worker.conn.send(("metrics", seq, None))
                pending[wk.shard_id] = wk
            except (BrokenPipeError, OSError, ValueError):
                pass  # dead pipe: scrape failure, recovery waits for a real op
        snaps: dict[int, dict] = {}
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            conns = {wk.worker.conn: wk for wk in pending.values()}
            ready = _conn_wait(list(conns), timeout=remaining)
            if not ready:
                break
            for conn in ready:
                wk = conns[conn]
                try:
                    kind, rseq, payload = conn.recv()
                except (EOFError, OSError):
                    del pending[wk.shard_id]
                    continue
                if rseq != seq:
                    wk.outstanding.discard(rseq)
                    continue
                if kind == "metrics" and payload:
                    snaps[wk.shard_id] = payload
                del pending[wk.shard_id]
        failed = [
            wk.shard_id
            for wk in self._workers
            if wk.shard_id not in snaps
        ]
        return snaps, failed

    def worker_health(self) -> list[dict]:
        """Per-worker liveness and failover bookkeeping (for /healthz)."""
        health = []
        for wk in self._workers:
            process = wk.worker.process if wk.worker is not None else None
            health.append({
                "shard": wk.shard_id,
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                # attempt counts spawns; respawns = attempts beyond the first.
                "respawns": max(0, wk.attempt - 1),
                "replayed_rounds": wk.replayed,
                # Rounds between what replay rebuilt and where the session
                # clock stood at (re)spawn — the catch-up the next ops paid.
                "replay_lag": max(0, wk.spawn_session_round - wk.ready_round),
            })
        return health

    def stats(self) -> dict:
        self._check_usable()
        replies = self._exchange(self._workers, "stats", lambda sid: None)
        shards = [replies[wk.shard_id][1] for wk in self._workers]
        return {
            "round": self._round,
            "shards": shards,
            "pending": sum(s["pending"] for s in shards),
            "jobs": sum(s["jobs"] for s in shards),
            "closed": self._closed,
        }

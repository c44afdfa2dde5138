"""Multi-process serve: one supervised worker process per shard.

:class:`~repro.serve.session.ShardedSession` runs every shard in
lockstep on one core, so adding shards *slows the server down* — each
tick is a serial loop over simulators.  This module moves each
:class:`~repro.serve.session.SessionShard` into its own child process
built on :class:`repro.utils.procs.PipeWorker` (duplex pipes,
``connection.wait``, SIGKILL + respawn), while
:class:`WorkerShardedSession` keeps the exact public surface of
``ShardedSession`` so the asyncio server is mode-agnostic.

**Admission stays in the frontend.**  :class:`WorkerShardedSession` is
an :class:`~repro.serve.session.AdmissionGate`, the same admission code
``ShardedSession`` runs: it checks every batch against per-shard
:class:`~repro.core.live.LiveSequence` mirrors, the tenant meters, the
seen-uid set and per-shard in-flight counts, so rejects, sheds and
their order are identical to the in-process session by construction.
Workers never vote.  A committed batch goes to each target worker as
one one-way ``commit`` message carrying ``(color, arrival,
delay_bound, uid)`` tuples, with no ack; ``tick`` is the one blocking
round trip per worker per round, and the mirrors advance with
``request(rnd)`` when it returns.  Worker ops are ``commit``, ``tick``,
``stats``, ``digests``, ``metrics`` and ``close``.

**Failover.**  The journal (:mod:`repro.serve.journal`) is write-ahead:
the submit intent and its commit marker are on disk *before* the commit
is sent to any worker, and round records land only after every shard
finished the round.  So when a worker dies (EOF/EPIPE) or hangs past
``timeout`` (SIGKILL), the parent respawns it with ``attempt + 1`` and
the child rebuilds its entire ``LiveSequence``/policy/simulator state
by replaying the journal filtered to its colors — byte-identical,
digest for digest, to a shard that never died.  A commit whose send
fails is therefore never re-sent: the respawned worker replayed it.  A
worker that dies after a send is caught at the next blocking exchange
and rebuilt the same way, and the in-flight blocking op re-runs against
the replayed state deterministically.  Retries are bounded
(``retries`` per worker per op) with deterministic
:func:`~repro.utils.procs.retry_backoff` delays; past the bound the
session raises and refuses further use.

Fault injection uses :mod:`repro.faults` plans: each worker op checks
the label ``serve/shard{id}/{op}/{seq}`` (fnmatch, so
``serve/shard1/tick/*`` kills shard 1 at its next tick).  Only worker
processes install the plan, so hang/kill never reach the server.
Replay runs *before* injection is consulted — a recovering worker must
not be re-killed by the rule that killed it.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Sequence

from repro import faults
from repro.core.engine import resolve_engine
from repro.core.job import Job
from repro.core.live import LiveSequence
from repro.policies import make_policy
from repro.serve.journal import read_records, replay_shard
from repro.serve.session import AdmissionGate, SessionShard, split_capacity
from repro.telemetry.recorder import (
    Recorder,
    TelemetryRecorder,
    get_recorder,
    set_recorder,
)
from repro.utils.procs import PipeWorker, retry_backoff

__all__ = ["WorkerShardedSession"]


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
    ``commit`` gets none.  The ``None`` sentinel shuts down.  Any
    uncaught exception kills the process — the parent sees EOF and
    handles it as a crash, which is exactly what injected ``raise``
    faults are meant to exercise.
    """
    # Untrack the inherited heap: its first full GC cost a tick 30-85 ms.
    gc.freeze()
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
        policy = make_policy(params["policy"], params["delta"])
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
        replayed = 0
        if journal_path is not None:
            # Recovery: rebuild the dead predecessor's state.  No fault
            # is consulted during replay, or the rule that killed the
            # worker would kill every successor too.
            replayed = replay_shard(read_records(journal_path), shard, shards)
    except Exception as exc:
        try:
            conn.send(
                ("init_error", -1, f"{type(exc).__name__}: {exc}")
            )
        finally:
            conn.close()
        return
    conn.send(("ready", -1, {"round": shard.live.next_round, "replayed": replayed}))

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
        if op == "commit":
            # A batch the frontend already admitted: push it, say nothing.
            shard.live.push_many([
                Job(color=color, arrival=arrival, delay_bound=bound, uid=uid)
                for color, arrival, bound, uid in payload
            ])
        elif op == "tick":
            if last_tick is not None and last_tick[0] == payload:
                part = last_tick[1]  # duplicate delivery; replay already ran it
            else:
                t0 = time.perf_counter()
                part = shard.step(payload)
                if recorder is not None:
                    # The worker-side round latency; relabeled with this
                    # shard's identity when the frontend scrapes it, so
                    # `repro top` can show a real per-shard tick p95.
                    recorder.observe(
                        "repro_serve_round_seconds", time.perf_counter() - t0
                    )
                last_tick = (payload, part)
            conn.send(("result", seq, part))
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
        #: rounds the current incarnation replayed from the journal at
        #: spawn (0 for the first spawn) and the round it came up at.
        self.replayed = 0
        self.ready_round = 0
        #: session round at the moment of the last (re)spawn — with
        #: ``ready_round`` this gives the journal-replay lag /healthz shows.
        self.spawn_session_round = 0


class WorkerShardedSession(AdmissionGate):
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
        telemetry: Recorder | None = None,
        name: str = "serve",
        engine: str = "incremental",
        retries: int = 2,
        timeout: float = 30.0,
        fault_plan_json: str | None = None,
    ):
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
        self.capacities = split_capacity(n, shards)
        super().__init__(
            [LiveSequence() for _ in range(shards)],
            self.capacities,
            speed,
            delta,
            max_pending,
        )
        self.journal_path = journal_path
        self.telemetry = telemetry if telemetry is not None else get_recorder()
        self.retries = retries
        self.timeout = timeout
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
        self._failed: str | None = None
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
                # 0-based attempts: a default times=1 rule hits the
                # first incarnation and spares every respawn.
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
        if replay and payload["round"] > self.round:
            raise RuntimeError(
                f"shard {wk.shard_id} replayed past the session clock: "
                f"{payload['round']} > {self.round}"
            )
        wk.replayed = payload["replayed"]
        wk.ready_round = payload["round"]
        wk.spawn_session_round = self.round

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
        time.sleep(retry_backoff(0, f"shard{wk.shard_id}/{op}", attempt))
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
        super().close()
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
    ) -> dict[int, tuple[str, object]]:
        """One blocking fan-out: send ``op`` to every target, gather replies.

        Survives worker deaths (respawn + replay + re-send) and hangs
        (per-attempt ``timeout`` → SIGKILL → same recovery), with at
        most ``retries`` recoveries per worker.  Replies with another
        ``seq`` (late answers to a soft metrics scrape) are dropped.
        """
        self._seq += 1
        seq = self._seq
        tries: dict[int, int] = {}
        pending: dict[int, _ShardWorker] = {wk.shard_id: wk for wk in targets}
        deadlines: dict[int, float] = {}
        for wk in targets:
            self._deliver(wk, op, seq, payload_of(wk.shard_id), tries)
            deadlines[wk.shard_id] = time.monotonic() + self.timeout
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
                    continue
                if kind == "error":
                    self._failed = f"shard {wk.shard_id}: {payload}"
                    raise RuntimeError(self._failed)
                replies[wk.shard_id] = (kind, payload)
                del pending[wk.shard_id]
        return replies

    # -- the ShardedSession surface --------------------------------------------

    def validate(self, jobs: Sequence[Job], trace: str | None = None) -> None:
        """:meth:`AdmissionGate.validate
        <repro.serve.session.AdmissionGate.validate>`, refused once the
        session has failed."""
        self._check_usable()
        super().validate(jobs, trace)

    def commit(self, jobs: Sequence[Job]) -> None:
        """Phase 2: commit the batch :meth:`validate` just cleared.

        Must follow a successful ``validate`` of the same batch with no
        session mutation in between (the server's synchronous frame
        handler guarantees this).  The frontend mirrors take the batch,
        then each target worker gets its slice as one one-way ``commit``
        message.  A send that fails means the worker died; its respawn
        replays the batch from the journal, so nothing is re-sent.
        """
        self._check_usable()
        slices = super().commit(jobs)
        self._seq += 1
        for sid, part in slices.items():
            wk = self._workers[sid]
            try:
                wk.worker.conn.send((
                    "commit",
                    self._seq,
                    [
                        (job.color, job.arrival, job.delay_bound, job.uid)
                        for job in part
                    ],
                ))
            except (BrokenPipeError, OSError, ValueError):
                self._recover(wk, "commit", {})
        if jobs and self.telemetry.enabled:
            self.telemetry.count("repro_serve_worker_commits_total")

    def tick(self) -> dict:
        """Advance every shard one round — in parallel across workers."""
        self._check_usable()
        rnd = self.round
        replies = self._exchange(self._workers, "tick", lambda sid: rnd)
        for live in self._lives:
            live.request(rnd)
        return self._settle(
            rnd, {wk.shard_id: replies[wk.shard_id][1] for wk in self._workers}
        )

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
        seq and are discarded by the next blocking exchange.
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
            "round": self.round,
            "shards": shards,
            "pending": sum(s["pending"] for s in shards),
            "jobs": sum(s["jobs"] for s in shards),
            "closed": self._closed,
        }

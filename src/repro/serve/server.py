"""The asyncio scheduling server.

One process, one event loop, one :class:`~repro.serve.session.ShardedSession`.
Clients speak ``repro-serve-v1`` (newline-delimited JSON,
:mod:`repro.serve.protocol`) on the main port; a second port serves
``GET /metrics`` (Prometheus text exposition, reusing
:mod:`repro.telemetry.prom`) and ``GET /healthz``.

Concurrency model: all session mutation happens synchronously inside
frame handlers on the single event loop — there is no ``await`` between
admission validation and commit, so a submit batch is atomic even with
many concurrent clients.  The round clock is either *client-driven*
(``tick`` frames; the mode every determinism test uses) or a *wall
timer* (the server ticks itself every ``round_interval`` seconds and
rejects client ticks with reason ``timer_clock``).

Optional durability: ``journal`` writes a write-ahead JSONL record per
accepted submit batch and per completed round
(:class:`~repro.utils.jsonl.JsonlJournal`), so a crashed session's
admitted workload can be replayed (:mod:`repro.serve.journal`).  The
journal fails stop: see :class:`JournalError`.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.core.job import Job
from repro.policies import make_policy
from repro.serve.journal import (
    JOURNAL_SCHEMA,
    commit_record,
    round_record,
    submit_record,
    tenant_record,
)
from repro.serve.protocol import (
    CLIENT_FRAMES,
    MAX_FRAME_BYTES,
    PROTOCOL,
    ProtocolError,
    decode_frame,
    encode_frame,
    job_from_wire,
)
from repro.serve.session import AdmissionError, ShardedSession
from repro.serve.tenants import TenantContract, TenantError, load_plan
from repro.serve.workers import WorkerShardedSession
from repro.telemetry.prom import render_prometheus
from repro.telemetry.quantiles import quantile_summary
from repro.telemetry.recorder import Recorder, TelemetryRecorder
from repro.telemetry.registry import merge_snapshots, relabel_snapshot
from repro.telemetry.spans import SpanWriter, mint_trace_id
from repro.utils.jsonl import JsonlJournal

__all__ = ["JournalError", "ServeConfig", "SchedulingServer", "serve_forever"]

#: cap on one HTTP request's header section (bytes and line count); a
#: client trickling headers past either gets 431 and the connection closed.
MAX_HEADER_BYTES = 16 * 1024
MAX_HEADER_LINES = 100
#: a subscriber whose transport write buffer exceeds this many bytes is
#: dropped instead of growing server memory without bound.
SUBSCRIBER_BUFFER_LIMIT = 1 << 20
#: recent tick/admission latency samples kept for the stats frame's exact
#: percentiles.
LATENCY_WINDOW = 4096


class JournalError(OSError):
    """The journal could not be opened or refused a record.  The server
    answers a refused record with a ``journal_failed`` error frame,
    commits nothing more and stops: it never acknowledges work its
    journal could not replay."""


@dataclass
class ServeConfig:
    """Everything ``repro serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in --port-file
    metrics_port: int | None = 0  # None = no HTTP listener
    n: int = 16
    delta: int | float = 4
    policy: str = "dlru-edf"
    shards: int = 1
    speed: int = 1
    #: engine name ("reference"/"incremental"; "auto" means incremental).
    engine: str = "incremental"
    clock: str = "client"  # "client" | "timer"
    round_interval: float = 0.05  # timer clock only
    max_pending: int = 10_000
    max_batch: int = 10_000
    journal: str | None = None
    port_file: str | None = None
    name: str = "serve"
    #: run every shard in its own supervised worker process
    #: (:class:`~repro.serve.workers.WorkerShardedSession`).  Requires a
    #: journal; if unset, the server creates one under the system temp
    #: dir and deletes it when it stops.
    workers: bool = False
    #: respawn attempts per worker per op before the session fails.
    worker_retries: int = 2
    #: per-attempt seconds before a hung worker is SIGKILLed.
    worker_timeout: float = 30.0
    #: JSONL sink for request-scoped spans (``repro-trace-v2``); None
    #: disables span tracing entirely (the default — zero overhead).
    spans: str | None = None
    #: tenant plan path (``{"tenants": [contract, ...]}``) registered at
    #: startup; None leaves multi-tenant admission off entirely — no
    #: shedding, no tenant telemetry, digests byte-identical to a server
    #: without the feature.
    tenants: str | None = None
    #: seconds a non-subscriber connection may sit in ``readline()``
    #: without sending a frame before the server closes it with a
    #: structured ``idle_timeout`` error; 0 disables the timeout.
    idle_timeout: float = 300.0

    def __post_init__(self) -> None:
        from repro.core.engine import resolve_engine

        self.engine = resolve_engine(self.engine)
        if self.clock not in ("client", "timer"):
            raise ValueError(
                f"clock must be 'client' or 'timer', got {self.clock!r}"
            )
        if self.clock == "timer" and self.round_interval <= 0:
            raise ValueError(
                f"round_interval must be positive, got {self.round_interval}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.worker_retries < 0:
            raise ValueError(
                f"worker_retries must be >= 0, got {self.worker_retries}"
            )
        if self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )
        if self.idle_timeout < 0:
            raise ValueError(
                f"idle_timeout must be >= 0, got {self.idle_timeout}"
            )


class SchedulingServer:
    """The serve-layer state machine plus its two asyncio listeners."""

    def __init__(
        self,
        config: ServeConfig,
        telemetry: Recorder | None = None,
    ):
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryRecorder()
        )
        #: contracts from --tenants, registered (BDR-checked, journaled,
        #: installed) in plan order during :meth:`start`.
        self._tenant_plan = (
            load_plan(config.tenants) if config.tenants else []
        )
        #: the journal this server created itself (``workers`` without
        #: ``journal``); :meth:`stop` deletes it.  An operator's journal
        #: is never deleted.
        self._temp_journal: str | None = None
        if config.workers and not config.journal:
            # Workers cannot fail over without a journal to replay; give
            # them one even when the operator didn't ask for durability.
            fd, self._temp_journal = tempfile.mkstemp(
                prefix="repro-serve-journal-", suffix=".jsonl"
            )
            os.close(fd)
            config = replace(config, journal=self._temp_journal)
        self.config = config
        try:
            if config.workers:
                self.session: ShardedSession | WorkerShardedSession = (
                    WorkerShardedSession(
                        n=config.n,
                        delta=config.delta,
                        policy=config.policy,
                        journal_path=config.journal,
                        shards=config.shards,
                        speed=config.speed,
                        engine=config.engine,
                        max_pending=config.max_pending,
                        telemetry=self.telemetry,
                        name=config.name,
                        retries=config.worker_retries,
                        timeout=config.worker_timeout,
                    )
                )
            else:
                self.session = ShardedSession(
                    n=config.n,
                    delta=config.delta,
                    policy_factory=lambda: make_policy(
                        config.policy, config.delta
                    ),
                    shards=config.shards,
                    speed=config.speed,
                    engine=config.engine,
                    max_pending=config.max_pending,
                    telemetry=self.telemetry,
                    name=config.name,
                )
        except BaseException:
            self._remove_temp_journal()
            raise
        # The journal opens (and truncates) only after the workers forked:
        # a respawn replays this file, a fresh spawn must not.
        try:
            self.journal = (
                JsonlJournal(config.journal, truncate=True)
                if config.journal
                else None
            )
        except OSError as exc:
            self.session.close()
            self._remove_temp_journal()
            raise JournalError(f"cannot open journal {config.journal}: {exc}")
        #: the journal failure that stopped the server, if any.
        self.failure: JournalError | None = None
        self._submit_seq = 0
        self._server: asyncio.AbstractServer | None = None
        self._metrics_server: asyncio.AbstractServer | None = None
        self._timer_task: asyncio.Task | None = None
        self._subscribers: list[asyncio.StreamWriter] = []
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopping = asyncio.Event()
        self.port: int | None = None
        self.metrics_port: int | None = None
        # -- observability state ----------------------------------------------
        #: span sink (None = tracing off; the digest-equality tests prove
        #: on/off never changes scheduling).
        self.spans = (
            SpanWriter(config.spans, **self._session_params())
            if config.spans
            else None
        )
        #: submit-receipt counter minting trace ids under ``spans``
        #: (rejected submits get ids too — their trace is root + reject).
        self._trace_seq = 0
        #: uid -> trace id for committed-but-not-yet-finished jobs; popped
        #: when the job executes or drops, so it stays bounded by pending.
        self._trace_uids: dict[int, str] = {}
        #: last-good relabeled snapshot per worker shard (the scrape-
        #: failure fallback: stale beats missing).
        self._worker_snapshots: dict[int, dict] = {}
        #: recent latency samples (seconds) for exact stats percentiles.
        self._tick_window: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._admission_window: deque[float] = deque(maxlen=LATENCY_WINDOW)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Journal the header and plan tenants, bind both listeners, write
        the port file, start the timer.  On failure the server is stopped
        again and the error raised."""
        cfg = self.config
        try:
            if self.journal is not None:
                self._journal_append({
                    "kind": "header",
                    "schema": JOURNAL_SCHEMA,
                    "proto": PROTOCOL,
                    **self._session_params(),
                })
            # Plan tenants register after the journal header so a failover
            # replay sees them in WAL order.  A plan the BDR check rejects
            # fails startup loudly rather than serving with a partial plan.
            for contract in self._tenant_plan:
                self._register_tenant(contract)
            self._server = await asyncio.start_server(
                self._handle_client,
                cfg.host,
                cfg.port,
                limit=MAX_FRAME_BYTES,
            )
            self.port = self._server.sockets[0].getsockname()[1]
            if cfg.metrics_port is not None:
                self._metrics_server = await asyncio.start_server(
                    self._handle_http, cfg.host, cfg.metrics_port
                )
                self.metrics_port = (
                    self._metrics_server.sockets[0].getsockname()[1]
                )
            if cfg.port_file:
                Path(cfg.port_file).write_text(
                    json.dumps(
                        {"port": self.port, "metrics_port": self.metrics_port}
                    )
                    + "\n"
                )
        except BaseException:
            await self.stop()
            raise
        if cfg.clock == "timer":
            self._timer_task = asyncio.get_running_loop().create_task(
                self._timer_clock()
            )

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to wind down (signal-safe)."""
        self._stopping.set()

    async def stop(self) -> None:
        """Close listeners, the timer, and every open client connection."""
        self._stopping.set()
        if self._timer_task is not None:
            self._timer_task.cancel()
            try:
                await self._timer_task
            except asyncio.CancelledError:
                pass
            self._timer_task = None
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._metrics_server = None
        # A client parked in readline() would otherwise keep its handler
        # coroutine alive until loop teardown; closing the transport
        # delivers EOF and lets every handler finish now.
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._writers.clear()
        self._subscribers.clear()
        self.session.close()
        if self.journal is not None:
            if self.failure is None:
                with suppress(JournalError):  # kept in self.failure
                    self._journal_append(
                        {"kind": "shutdown", "round": self.session.round}
                    )
            self.journal.close()
        if self.spans is not None:
            self.spans.close()
        self._remove_temp_journal()

    def _remove_temp_journal(self) -> None:
        if self._temp_journal is not None:
            Path(self._temp_journal).unlink(missing_ok=True)

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`request_stop` (e.g. from a signal handler) or
        a journal failure."""
        await self._stopping.wait()
        await self.stop()

    def _journal_append(self, record: dict, sync: bool = True) -> None:
        """Append one journal record, fail-stop: a record the journal
        refuses records :attr:`failure`, asks the server to stop and
        raises :class:`JournalError`, so the caller commits nothing more."""
        try:
            self.journal.append(record, sync=sync)
        except OSError as exc:
            self.failure = JournalError(
                f"journal {self.config.journal}: cannot append a "
                f"{record['kind']} record: {exc}"
            )
            self._stopping.set()
            raise self.failure from None

    # -- the round clock -------------------------------------------------------

    def _tick_rounds(self, rounds: int) -> list[dict]:
        """Advance the session ``rounds`` times; returns the result frames."""
        telem = self.telemetry
        frames = []
        for _ in range(rounds):
            t0 = perf_counter()
            result = self.session.tick()
            elapsed = perf_counter() - t0
            self._tick_window.append(elapsed)
            if telem.enabled:
                telem.observe("repro_serve_round_seconds", elapsed)
                telem.count("repro_serve_ticks_total")
                telem.gauge("repro_serve_pending_jobs", result["pending"])
            if self.spans is not None:
                # Execution/drop spans close each job's trace with the
                # shard coordinate the merged frame no longer carries.
                for sid, part in sorted(self.session.last_tick_parts.items()):
                    for name, uids in (
                        ("execute", part["executed"]),
                        ("drop", part["dropped"]),
                    ):
                        for uid in uids:
                            trace = self._trace_uids.pop(uid, None)
                            if trace is None:
                                continue
                            self._span(
                                trace,
                                name,
                                parent=f"{trace}/submit",
                                span_id=f"{trace}/{name}/{uid}",
                                round=result["round"],
                                shard=sid,
                                uid=uid,
                            )
            if self.journal is not None:
                # Written, not fsynced: worker failover only needs the
                # record visible to a replaying child on this machine,
                # and the next fsynced submit intent lands it durably.
                self._journal_append(round_record(result), sync=False)
            frames.append({"type": "result", **result})
        return frames

    async def _timer_clock(self) -> None:
        while True:
            await asyncio.sleep(self.config.round_interval)
            try:
                frames = self._tick_rounds(1)
            except JournalError as exc:
                self._broadcast(_journal_failed_frame(exc))
                return
            for frame in frames:
                self._broadcast(frame)

    def _broadcast(self, frame: dict) -> None:
        payload = encode_frame(frame)
        telem = self.telemetry
        alive = []
        for writer in self._subscribers:
            if writer.is_closing():
                continue
            transport = writer.transport
            if (
                transport is not None
                and transport.get_write_buffer_size() > SUBSCRIBER_BUFFER_LIMIT
            ):
                # A subscriber that stopped reading would buffer result
                # frames in server memory forever; cut it loose instead.
                if telem.enabled:
                    telem.count("repro_serve_subscribers_dropped_total")
                writer.close()
                continue
            writer.write(payload)
            alive.append(writer)
        self._subscribers = alive

    # -- observability ---------------------------------------------------------

    def _span(self, trace: str, name: str, **kw) -> str | None:
        """Emit one span (if tracing is on) and count it; returns its id."""
        if self.spans is None:
            return None
        span_id = self.spans.span(trace, name, **kw)
        if self.telemetry.enabled:
            self.telemetry.count("repro_serve_spans_total", kind=name)
        return span_id

    def _latency_summary(self) -> dict:
        """Exact p50/p95/p99 (ms) over the recent latency windows."""
        return {
            "tick_ms": quantile_summary(self._tick_window, scale=1e3),
            "admission_ms": quantile_summary(self._admission_window, scale=1e3),
        }

    def _refresh_worker_metrics(self) -> None:
        """Soft-scrape worker telemetry; update last-good, count failures.

        Worker snapshots are cumulative per incarnation, so each scrape
        *replaces* that worker's last-good snapshot (merging across
        scrapes would double-count).  A failed scrape keeps the stale
        snapshot — ``/metrics`` serves last-good data plus a
        ``repro_serve_worker_scrape_failures_total`` counter rather than
        silently dropping the worker's series.
        """
        session = self.session
        try:
            snaps, failed = session.metrics_snapshots()
        except Exception:
            snaps, failed = {}, list(range(session.num_shards))
        for sid, snap in snaps.items():
            self._worker_snapshots[sid] = relabel_snapshot(
                snap, worker=sid, shard=sid
            )
        if failed and self.telemetry.enabled:
            for sid in failed:
                self.telemetry.count(
                    "repro_serve_worker_scrape_failures_total", shard=str(sid)
                )

    def merged_snapshot(self) -> dict:
        """The frontend's snapshot merged with every shard's, each shard's
        series labeled with its id.

        Single-process mode: each shard's own registry
        (:meth:`ShardedSession.shard_snapshots`), labeled ``shard``.
        Workers mode: an on-demand scrape first, then each worker's
        last-good snapshot, labeled ``worker`` and ``shard``; so
        ``/metrics`` is always at most one scrape old.
        """
        session = self.session
        if isinstance(session, WorkerShardedSession):
            self._refresh_worker_metrics()
            shards = [
                self._worker_snapshots[sid]
                for sid in sorted(self._worker_snapshots)
            ]
        else:
            shards = [
                relabel_snapshot(snap, shard=sid)
                for sid, snap in enumerate(session.shard_snapshots())
                if snap
            ]
        snap = self.telemetry.snapshot()
        if not shards:
            return snap
        return merge_snapshots([snap] + shards)

    # -- the NDJSON protocol ---------------------------------------------------

    def _session_params(self) -> dict:
        cfg = self.config
        return {
            "n": cfg.n,
            "shards": self.session.num_shards,
            "shard_capacity": list(self.session.capacities),
            "delta": cfg.delta,
            "speed": cfg.speed,
            "policy": cfg.policy,
            "engine": cfg.engine,
            "clock": cfg.clock,
            "max_pending": cfg.max_pending,
            "max_batch": cfg.max_batch,
        }

    def _handle_frame(
        self, frame: dict, writer: asyncio.StreamWriter
    ) -> tuple[list[dict], bool]:
        """Process one frame; returns (replies, keep_connection_open).

        Synchronous on purpose: no await may separate validation from
        commit, or concurrent clients could interleave half-admitted
        batches.
        """
        if self.failure is not None:
            raise self.failure
        kind = frame["type"]
        telem = self.telemetry
        if telem.enabled:
            telem.count("repro_serve_frames_total", kind=kind)
        if kind not in CLIENT_FRAMES:
            return [{
                "type": "error",
                "code": "bad_frame",
                "message": f"unknown frame type {kind!r}",
            }], True

        if kind == "hello":
            if frame.get("proto") not in (None, PROTOCOL):
                return [{
                    "type": "error",
                    "code": "bad_proto",
                    "message": f"server speaks {PROTOCOL}",
                }], False
            if frame.get("subscribe"):
                self._subscribers.append(writer)
            return [{
                "type": "welcome",
                "proto": PROTOCOL,
                "round": self.session.round,
                **self._session_params(),
            }], True

        if kind == "submit":
            return [self._handle_submit(frame)], True

        if kind == "tenant_register":
            return [self._handle_tenant_register(frame)], True

        if kind == "tenant_stats":
            return [{
                "type": "tenant_stats",
                "tenants": self.session.tenant_stats(),
            }], True

        if kind == "tick":
            if self.config.clock != "client":
                return [{
                    "type": "reject",
                    "id": frame.get("id"),
                    "reason": "timer_clock",
                    "message": "this server owns its round clock; "
                    "ticks are rejected",
                }], True
            rounds = frame.get("rounds", 1)
            if (
                isinstance(rounds, bool)
                or not isinstance(rounds, int)
                or not 1 <= rounds <= 100_000
            ):
                return [{
                    "type": "error",
                    "code": "bad_frame",
                    "message": "tick 'rounds' must be an integer in [1, 100000]",
                }], True
            return self._tick_rounds(rounds), True

        if kind == "stats":
            return [{
                "type": "stats",
                **self.session.stats(),
                "latency": self._latency_summary(),
            }], True

        # bye
        return [{"type": "bye"}], False

    def _register_tenant(self, contract: TenantContract) -> list[dict]:
        """WAL-disciplined tenant registration.

        Order matters: the pure BDR :meth:`~TenantDirectory.check` decides
        first, the journal record lands (fsynced) second, installation in
        the admission gate's meters happens last, so a replay always sees
        an admitted tenant's record before any submit its meters
        influenced.
        Raises :class:`TenantError` (nothing journaled, nothing installed)
        when the contract is unschedulable.
        """
        self.session.tenants.check(contract)
        if self.journal is not None:
            self._journal_append(tenant_record(contract.to_dict()))
        placement = self.session.register_tenant(contract)
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "repro_serve_tenants", len(self.session.tenants.contracts)
            )
        return placement

    def _handle_tenant_register(self, frame: dict) -> dict:
        telem = self.telemetry
        try:
            contract = TenantContract.from_dict(frame.get("tenant") or {})
            placement = self._register_tenant(contract)
        except TenantError as exc:
            if telem.enabled:
                telem.count(
                    "repro_serve_tenant_rejects_total", reason=exc.reason
                )
            return {
                "type": "reject",
                "id": frame.get("id"),
                "reason": exc.reason,
                "message": exc.message,
            }
        return {
            "type": "tenant_ok",
            "id": frame.get("id"),
            "name": contract.name,
            "placement": placement,
        }

    def _handle_submit(self, frame: dict) -> dict:
        telem = self.telemetry
        t0 = perf_counter()
        submit_id = frame.get("id")
        wire_jobs = frame.get("jobs")
        if not isinstance(wire_jobs, list):
            return {
                "type": "reject",
                "id": submit_id,
                "reason": "bad_frame",
                "message": "submit needs a 'jobs' array",
            }
        if len(wire_jobs) > self.config.max_batch:
            return {
                "type": "reject",
                "id": submit_id,
                "reason": "backpressure",
                "message": f"batch of {len(wire_jobs)} exceeds max_batch="
                f"{self.config.max_batch}; split it",
            }
        default_arrival = self.session.round
        try:
            jobs: Sequence[Job] = [
                job_from_wire(w, default_arrival) for w in wire_jobs
            ]
        except ProtocolError as exc:
            return {
                "type": "reject",
                "id": submit_id,
                "reason": exc.code,
                "message": str(exc),
            }
        # Under --spans, every submit that reaches the session gets a
        # trace id — minted from a plain receipt counter, so trace ids are
        # deterministic for a deterministic client (never wall-clock or
        # random).
        if self.spans is not None:
            self._trace_seq += 1
            trace = mint_trace_id(self._trace_seq)
            root_id = f"{trace}/submit"
        submit_round = self.session.round
        try:
            admission = self.session.validate(jobs)
        except AdmissionError as exc:
            elapsed = perf_counter() - t0
            self._admission_window.append(elapsed)
            if telem.enabled:
                telem.count("repro_serve_rejects_total", reason=exc.reason)
                telem.observe("repro_serve_admission_seconds", elapsed)
            if self.spans is not None:
                self._span(
                    trace,
                    "reject",
                    parent=root_id,
                    reason=exc.reason,
                    **({} if exc.index is None else {"index": exc.index}),
                )
                self._span(
                    trace, "submit", round=submit_round, seq=self._trace_seq,
                    jobs=len(jobs), outcome="reject",
                    wall_ms=elapsed * 1e3,
                )
            return {
                "type": "reject",
                "id": submit_id,
                "reason": exc.reason,
                "message": str(exc),
                "index": exc.index,
            }
        # With tenants registered, validation may have shed an over-rate
        # tenant's jobs; everything downstream (journal, commit, spans,
        # job counters) sees only the kept jobs, so the journal replays
        # shed-free and compliant tenants' state is exactly what it would
        # be had the shed jobs never been submitted.
        kept = admission.kept
        if self.spans is not None:
            for sid in sorted(admission.slices):
                self._span(
                    trace, "admit", parent=root_id, shard=sid,
                    jobs=len(admission.slices[sid]), verdict="ok",
                )
        # Write-ahead: the fsynced intent plus its commit marker are on
        # disk *before* the commit touches any shard, so a crash at any
        # point either loses an unacknowledged batch entirely (no
        # marker) or replays it exactly once — never silently drops an
        # admitted one.  A record the journal refuses stops the server
        # before the commit (fail-stop).
        self._submit_seq += 1
        if self.journal is not None:
            tj = perf_counter()
            self._journal_append(
                submit_record(self._submit_seq, self.session.round, kept)
            )
            if self.spans is not None:
                self._span(
                    trace, "wal.intent", parent=root_id,
                    seq=self._submit_seq, wall_ms=(perf_counter() - tj) * 1e3,
                )
            self._journal_append(commit_record(self._submit_seq), sync=False)
            if self.spans is not None:
                self._span(
                    trace, "wal.commit", parent=root_id, seq=self._submit_seq
                )
        self.session.commit(admission)
        elapsed = perf_counter() - t0
        self._admission_window.append(elapsed)
        if telem.enabled:
            telem.count("repro_serve_jobs_total", len(kept))
            telem.observe("repro_serve_admission_seconds", elapsed)
            for tenant, (submitted, lost) in admission.tallies.items():
                telem.count(
                    "repro_serve_tenant_submitted_total", submitted,
                    tenant=tenant,
                )
                telem.count(
                    "repro_serve_tenant_admitted_total", submitted - lost,
                    tenant=tenant,
                )
                if lost:
                    telem.count(
                        "repro_serve_tenant_shed_total", lost, tenant=tenant
                    )
        if self.spans is not None:
            self._span(
                trace, "commit", parent=root_id, round=self.session.round,
                seq=self._submit_seq, jobs=len(kept),
            )
            for job in kept:
                self._trace_uids[job.uid] = trace
            self._span(
                trace, "submit", round=submit_round, seq=self._trace_seq,
                jobs=len(kept), outcome="accept", wall_ms=elapsed * 1e3,
            )
        reply = {
            "type": "accept",
            "id": submit_id,
            "count": len(kept),
            "round": self.session.round,
        }
        if not self.session.tenants.empty:
            # Additive fields, emitted only when tenants exist: a
            # tenant-free server's accept frames stay byte-identical.
            reply["shed"] = len(admission.shed)
            reply["shed_uids"] = [entry["uid"] for entry in admission.shed]
        return reply

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        telem = self.telemetry
        if telem.enabled:
            telem.count("repro_serve_connections_total")
        self._writers.add(writer)
        try:
            while not self._stopping.is_set():
                # A client that connects and never sends would otherwise
                # park this coroutine in readline() until shutdown.
                # Subscribers are exempt: they legitimately go quiet and
                # just receive broadcast result frames.
                idle = self.config.idle_timeout
                timed = idle > 0 and writer not in self._subscribers
                try:
                    if timed:
                        line = await asyncio.wait_for(
                            reader.readline(), idle
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    if telem.enabled:
                        telem.count("repro_serve_idle_disconnects_total")
                    try:
                        writer.write(encode_frame({
                            "type": "error",
                            "code": "idle_timeout",
                            "message": f"no frame received in {idle:g}s; "
                            f"closing idle connection",
                        }))
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    writer.write(encode_frame({
                        "type": "error",
                        "code": exc.code,
                        "message": str(exc),
                    }))
                    await writer.drain()
                    continue
                try:
                    replies, keep_open = self._handle_frame(frame, writer)
                except JournalError as exc:
                    # The server is stopping: answer, then hang up.
                    replies = [_journal_failed_frame(exc)]
                    keep_open = False
                except RuntimeError as exc:
                    # A failed worker session (shard unavailable past its
                    # retry budget) poisons every further op; tell the
                    # client once and hang up.
                    replies = [{
                        "type": "error",
                        "code": "session_failed",
                        "message": str(exc),
                    }]
                    keep_open = False
                for reply in replies:
                    writer.write(encode_frame(reply))
                await writer.drain()
                if not keep_open:
                    break
        except ConnectionError:
            pass
        finally:
            self._writers.discard(writer)
            self._subscribers = [
                w for w in self._subscribers if w is not writer
            ]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- the HTTP sidecar ------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            request_line = await reader.readline()
            # Drain headers (we never need them) under a hard cap: a
            # client trickling header lines forever must not pin this
            # coroutine or grow memory without bound.
            header_bytes = 0
            header_lines = 0
            oversized = False
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                header_bytes += len(header)
                header_lines += 1
                if (
                    header_bytes > MAX_HEADER_BYTES
                    or header_lines > MAX_HEADER_LINES
                ):
                    oversized = True
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if oversized:
                body = b"header section too large\n"
                ctype = "text/plain"
                status = "431 Request Header Fields Too Large"
            elif path.split("?")[0] == "/metrics":
                body = render_prometheus(self.merged_snapshot()).encode()
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                status = "200 OK"
            elif path.split("?")[0] == "/healthz":
                health = {
                    "status": "ok",
                    "proto": PROTOCOL,
                    "round": self.session.round,
                    "pending": self.session.pending,
                    "shards": self.session.num_shards,
                }
                if isinstance(self.session, WorkerShardedSession):
                    health["workers"] = self.session.worker_health()
                body = (json.dumps(health) + "\n").encode()
                ctype = "application/json"
                status = "200 OK"
            else:
                body = b"not found\n"
                ctype = "text/plain"
                status = "404 Not Found"
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode() + body
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _journal_failed_frame(exc: JournalError) -> dict:
    return {"type": "error", "code": "journal_failed", "message": str(exc)}


async def _serve_async(config: ServeConfig, quiet: bool = False) -> int:
    server = SchedulingServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_stop)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    if not quiet:
        print(
            f"repro serve: {PROTOCOL} on {config.host}:{server.port}"
            + (
                f", metrics on http://{config.host}:{server.metrics_port}/metrics"
                if server.metrics_port is not None
                else ""
            )
            + f" ({config.policy}, n={config.n}, shards={config.shards}, "
            f"clock={config.clock})",
            flush=True,
        )
    await server.serve_until_stopped()
    if server.failure is not None:
        raise server.failure
    if not quiet:
        print("repro serve: stopped", flush=True)
    return 0


def serve_forever(config: ServeConfig, quiet: bool = False) -> int:
    """Blocking entry point used by ``repro serve``; raises ``OSError``
    when a listener or the journal (:class:`JournalError`) fails."""
    return asyncio.run(_serve_async(config, quiet=quiet))

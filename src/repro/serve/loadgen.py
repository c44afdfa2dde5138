"""Deterministic load generator and replay verifier.

``repro loadgen`` replays a workload :class:`~repro.core.request.Instance`
against a running server, round by round: submit round ``r``'s jobs
(with their exact uids and arrivals), tick once, measure the round-trip
latency of the tick, and collect the per-round result frames.  After the
horizon it fetches the server's ``stats`` frame and — because the shard
routing (:func:`~repro.serve.session.shard_of`), the capacity split, and
the simulators themselves are all deterministic — recomputes every
shard's run offline with a stock :meth:`Simulator.run` and compares the
component digests.  A server that scheduled even one job differently
from the offline engines fails the digest check.

This is both the correctness harness (``--verify``, used by the serve
determinism tests and the CI smoke leg) and a throughput report: jobs
and rounds per second, and exact tick-latency percentiles.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.digest import component_digests
from repro.core.engine import make_simulator
from repro.core.request import Instance, RequestSequence
from repro.policies import make_policy
from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    decode_frame,
    encode_frame,
    job_to_wire,
)
from repro.serve.session import shard_of
from repro.telemetry.quantiles import exact_quantile

__all__ = ["LoadgenError", "LoadgenReport", "run_loadgen", "verify_offline"]


class LoadgenError(RuntimeError):
    """The replay could not proceed (reject, protocol mismatch, drain failure)."""


@dataclass
class LoadgenReport:
    """Everything one replay produced."""

    rounds: int = 0
    jobs: int = 0
    executed: int = 0
    dropped: int = 0
    total_cost: int | float = 0
    wall_seconds: float = 0.0
    tick_latencies: list[float] = field(default_factory=list)
    server_digests: list[dict] = field(default_factory=list)
    offline_digests: list[dict] = field(default_factory=list)
    digests_match: bool | None = None  # None = verification skipped
    params: dict = field(default_factory=dict)
    #: jobs the server's tenant meters shed (uids from accept frames);
    #: always empty when the server has no tenants registered.
    shed: int = 0
    shed_uids: list[int] = field(default_factory=list)

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def rounds_per_second(self) -> float:
        return self.rounds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) of tick round-trip latency, seconds.

        Exact, nearest-rank over the recorded samples — the shared
        convention in :func:`repro.telemetry.quantiles.exact_quantile`.
        """
        return exact_quantile(self.tick_latencies, q)

    def as_dict(self) -> dict:
        lat = self.tick_latencies
        return {
            "rounds": self.rounds,
            "jobs": self.jobs,
            "shed": self.shed,
            "executed": self.executed,
            "dropped": self.dropped,
            "total_cost": self.total_cost,
            "wall_seconds": self.wall_seconds,
            "jobs_per_second": self.jobs_per_second,
            "rounds_per_second": self.rounds_per_second,
            "latency_ms": {
                "p50": self.latency_quantile(0.50) * 1e3,
                "p95": self.latency_quantile(0.95) * 1e3,
                "p99": self.latency_quantile(0.99) * 1e3,
                "mean": (sum(lat) / len(lat) * 1e3) if lat else 0.0,
                "max": max(lat) * 1e3 if lat else 0.0,
            },
            "digests_match": self.digests_match,
            # Included so two runs' reports can be compared digest for
            # digest (the chaos-serve drill does exactly that).
            "server_digests": self.server_digests,
            "params": self.params,
        }


class _Client:
    """Minimal line-frame client over one asyncio connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def send(self, frame: dict) -> None:
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await self.reader.readline()
        if not line:
            raise LoadgenError("server closed the connection mid-replay")
        try:
            return decode_frame(line)
        except ProtocolError as exc:
            raise LoadgenError(f"unparseable server frame: {exc}") from None

    async def expect(self, *kinds: str) -> dict:
        frame = await self.recv()
        if frame.get("type") == "error":
            raise LoadgenError(
                f"server error {frame.get('code')!r}: {frame.get('message')}"
            )
        if frame.get("type") not in kinds:
            raise LoadgenError(
                f"expected {'/'.join(kinds)} frame, got {frame.get('type')!r}"
            )
        return frame


def verify_offline(
    instance: Instance,
    params: dict,
    rounds: int,
    exclude_uids: frozenset[int] | set[int] = frozenset(),
) -> list[dict]:
    """Recompute every shard's component digests offline.

    ``params`` is the server's welcome/stats configuration (shards,
    shard_capacity, delta, speed, policy, engine).  Jobs are partitioned
    exactly like :meth:`ShardedSession.submit` routes them — same hash,
    same within-round order — so equal digests mean the live run and
    :meth:`Simulator.run` agree bit for bit.

    ``exclude_uids`` removes jobs the live server shed under a tenant
    contract before they reached any shard: the offline replay must see
    exactly the admitted sequence, so a flooded run still verifies.
    """
    shards = params["shards"]
    capacities = params["shard_capacity"]
    engine = params["engine"]
    per_shard: list[list] = [[] for _ in range(shards)]
    for rnd in range(instance.horizon):
        for job in instance.sequence.request(rnd):
            if job.uid in exclude_uids:
                continue
            per_shard[shard_of(job.color, shards)].append(job)
    digests = []
    for shard_id, jobs in enumerate(per_shard):
        sequence = RequestSequence(jobs, horizon=rounds)
        shard_instance = Instance(
            sequence, params["delta"], name=f"offline/shard{shard_id}"
        )
        policy = make_policy(params["policy"], params["delta"])
        sim = make_simulator(
            shard_instance,
            policy,
            capacities[shard_id],
            engine=engine,
            speed=params["speed"],
            record_events=True,
        )
        result = sim.run(horizon=rounds)
        digests.append(component_digests(
            result.ledger,
            result.schedule,
            result.events,
            result.executed_uids,
            result.dropped_uids,
        ))
    return digests


async def _connect_with_retry(
    host: str,
    port: int,
    attempts: int,
    base: float = 0.05,
    cap: float = 1.0,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Bounded, deterministic retry around ``asyncio.open_connection``.

    The serve smoke path races the server's listen against the client's
    first connect (the port file can exist before accept() is armed), and
    transient ECONNREFUSED/ECONNRESET show up under load.  Delays are a
    fixed exponential ladder — ``min(cap, base * 2**k)`` with no jitter —
    so a failing run fails in the same amount of time every time.
    """
    last: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            await asyncio.sleep(min(cap, base * (2 ** (attempt - 1))))
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as exc:
            last = exc
    raise LoadgenError(
        f"cannot connect to {host}:{port} after {attempts} attempts: {last}"
    )


async def _replay(
    host: str,
    port: int,
    instance: Instance,
    verify: bool,
    tenants: list[dict] | None = None,
    connect_attempts: int = 8,
) -> LoadgenReport:
    reader, writer = await _connect_with_retry(host, port, connect_attempts)
    client = _Client(reader, writer)
    report = LoadgenReport()
    try:
        await client.send({"type": "hello", "proto": PROTOCOL, "client": "loadgen"})
        welcome = await client.expect("welcome")
        if welcome.get("clock") != "client":
            raise LoadgenError(
                "loadgen needs a client-driven clock; start the server with "
                "--clock client"
            )
        if verify and welcome.get("round", 0) != 0:
            raise LoadgenError(
                f"server already ticked to round {welcome.get('round')}; "
                "digest verification needs a fresh session"
            )
        if welcome.get("delta") != instance.delta:
            raise LoadgenError(
                f"workload has Delta={instance.delta} but the server runs "
                f"Delta={welcome.get('delta')}; digests would trivially differ"
            )
        max_batch = int(welcome.get("max_batch", 10_000))
        report.params = {
            key: welcome[key]
            for key in (
                "n", "shards", "shard_capacity", "delta", "speed",
                "policy", "engine", "max_pending",
            )
            if key in welcome
        }

        for entry in tenants or ():
            await client.send({
                "type": "tenant_register",
                "id": f"tenant:{entry.get('name')}",
                "tenant": entry,
            })
            reply = await client.expect("tenant_ok", "reject")
            if reply["type"] == "reject":
                raise LoadgenError(
                    f"tenant {entry.get('name')!r} rejected "
                    f"({reply.get('reason')}): {reply.get('message')}"
                )

        horizon = instance.horizon
        t_start = perf_counter()
        for rnd in range(horizon):
            jobs = list(instance.sequence.request(rnd))
            for lo in range(0, len(jobs), max_batch):
                chunk = jobs[lo : lo + max_batch]
                await client.send({
                    "type": "submit",
                    "id": f"r{rnd}b{lo}",
                    "jobs": [job_to_wire(job) for job in chunk],
                })
                reply = await client.expect("accept", "reject")
                if reply["type"] == "reject":
                    raise LoadgenError(
                        f"round {rnd}: submit rejected "
                        f"({reply.get('reason')}): {reply.get('message')}"
                    )
                # count = jobs actually admitted; with tenant shedding it
                # can undercut the chunk, and the shed uids must be
                # excluded from the offline verification replay.
                report.jobs += int(reply.get("count", len(chunk)))
                report.shed += int(reply.get("shed", 0))
                report.shed_uids.extend(reply.get("shed_uids", ()))
            t0 = perf_counter()
            await client.send({"type": "tick"})
            result = await client.expect("result")
            report.tick_latencies.append(perf_counter() - t0)
            report.rounds += 1
            report.executed += len(result.get("executed", ()))
            report.dropped += len(result.get("dropped", ()))
            report.total_cost += result.get("cost", 0)
            if result.get("round") != rnd:
                raise LoadgenError(
                    f"clock skew: ticked round {rnd}, server reports "
                    f"{result.get('round')}"
                )
        # The generated horizon covers every deadline, so the session must
        # be fully drained; a nonzero pending count is a scheduling bug.
        if report.rounds and result.get("pending", 0) != 0:
            raise LoadgenError(
                f"{result['pending']} jobs still pending after the horizon"
            )
        report.wall_seconds = perf_counter() - t_start

        await client.send({"type": "stats"})
        stats = await client.expect("stats")
        report.server_digests = [
            shard["digests"] for shard in stats.get("shards", [])
        ]
        if verify:
            report.offline_digests = verify_offline(
                instance,
                report.params,
                report.rounds,
                exclude_uids=frozenset(report.shed_uids),
            )
            report.digests_match = (
                report.server_digests == report.offline_digests
            )
        await client.send({"type": "bye"})
        await client.expect("bye")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return report


def run_loadgen(
    host: str,
    port: int,
    instance: Instance,
    verify: bool = True,
    tenants: list[dict] | None = None,
    connect_attempts: int = 8,
) -> LoadgenReport:
    """Blocking replay of ``instance`` against ``host:port``.

    ``tenants`` (wire-form contract dicts) are registered over the
    protocol before any submit; ``connect_attempts`` bounds the
    deterministic connect retry ladder.
    """
    return asyncio.run(
        _replay(
            host,
            port,
            instance,
            verify,
            tenants=tenants,
            connect_attempts=connect_attempts,
        )
    )

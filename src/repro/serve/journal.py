"""The write-ahead session journal: record shapes and replay.

``repro serve --journal`` emits one JSONL record per event in a
session's life, in this order discipline (the WAL contract workers and
crash recovery both rely on):

``header``
    Session parameters, written once at start:
    ``{"kind": "header", "schema": "repro-serve-journal-v2", ...}``.
``submit``
    The **intent** record for one validated batch, written *before* any
    shard state changes and fsynced: ``{"kind": "submit", "seq": k,
    "round": r, "jobs": [wire-jobs...]}``.
``commit``
    The **marker** that batch ``seq`` was handed to the shards:
    ``{"kind": "commit", "seq": k}``.  Written after the intent and
    before the commit is applied, so replay treats a marked batch as
    admitted exactly once.  An intent with no marker is a batch whose
    admission never completed (the client never saw ``accept``); replay
    skips it.
``round``
    One completed round's merged result frame:
    ``{"kind": "round", "round": r, "executed": [...], ...}``.  Written
    after every shard finished the round, so a round record is proof
    the whole session reached ``r + 1``.
``shutdown``
    Clean close.

Replay is a pure fold over the records in file order: apply each marked
submit's jobs, step one round per ``round`` record.  Because the server
interleaves records in real admission order, the fold reconstructs the
exact :class:`~repro.core.live.LiveSequence` history — which is why a
respawned shard worker replaying the journal (filtered to its colors by
the same blake2b :func:`~repro.serve.session.shard_of` routing) ends up
byte-identical, digest for digest, with a shard that never died.

Torn tails are expected: a crash can truncate the final line, and a
process kill can race the ``commit`` marker.  Both degrade to "the last
batch was never admitted", never to divergence.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.core.job import Job
from repro.serve.protocol import job_from_wire, job_to_wire
from repro.serve.session import SessionShard, ShardedSession, shard_of
from repro.serve.tenants import ShardTenantMeter, TenantContract, shard_shares
from repro.utils.jsonl import read_jsonl

__all__ = [
    "JOURNAL_SCHEMA",
    "commit_record",
    "read_records",
    "replay_ops",
    "replay_session",
    "replay_shard",
    "round_record",
    "submit_record",
    "tenant_record",
]

JOURNAL_SCHEMA = "repro-serve-journal-v2"


# -- record builders (the single source of the wire shapes) -------------------


def submit_record(
    seq: int, rnd: int, jobs: Sequence[Job], trace: str | None = None
) -> dict:
    """The write-ahead intent for one validated batch.

    ``trace`` (the request's span-trace id) is additive and purely
    observational: replay ignores it, so journals with and without it
    rebuild identical sessions.
    """
    record = {
        "kind": "submit",
        "seq": seq,
        "round": rnd,
        "jobs": [job_to_wire(job) for job in jobs],
    }
    if trace is not None:
        record["trace"] = trace
    return record


def commit_record(seq: int, trace: str | None = None) -> dict:
    """The marker that batch ``seq``'s commit was handed to the shards."""
    record = {"kind": "commit", "seq": seq}
    if trace is not None:
        record["trace"] = trace
    return record


def round_record(result: dict) -> dict:
    """One completed round's merged result frame."""
    return {"kind": "round", **result}


def tenant_record(contract: dict) -> dict:
    """An admitted tenant registration (``contract`` is the wire form from
    :meth:`~repro.serve.tenants.TenantContract.to_dict`).  Written after
    the BDR check passed and *before* any meter is installed, so replay
    rebuilds the exact token-bucket trajectory: registration sets the
    bucket full, each marked submit debits, each round refills."""
    return {"kind": "tenant", "tenant": contract}


# -- replay -------------------------------------------------------------------


def read_records(path: str | os.PathLike) -> list[dict]:
    """All complete journal records in file order (torn tail skipped)."""
    return read_jsonl(path)


def replay_ops(
    records: Iterable[dict],
) -> list[tuple[str, object]]:
    """The admitted history as an ordered op list.

    Returns ``("submit", [Job, ...])`` for every batch whose ``commit``
    marker made it to disk, ``("round", rnd)`` per completed round, and
    ``("tenant", contract_dict)`` per admitted tenant registration, in
    journal order.  Pre-WAL v1 journals (submit records with no ``seq``)
    replay too: v1 wrote submits only after commit, so every v1 submit
    record counts as marked.
    """
    record_list = list(records)
    marked = {
        r["seq"]
        for r in record_list
        if r.get("kind") == "commit" and "seq" in r
    }
    ops: list[tuple[str, object]] = []
    for record in record_list:
        kind = record.get("kind")
        if kind == "submit":
            seq = record.get("seq")
            if seq is not None and seq not in marked:
                continue  # intent without marker: admission never completed
            rnd = record.get("round", 0)
            jobs = [job_from_wire(w, rnd) for w in record.get("jobs", [])]
            ops.append(("submit", jobs))
        elif kind == "round":
            ops.append(("round", record["round"]))
        elif kind == "tenant":
            ops.append(("tenant", record["tenant"]))
    return ops


def replay_shard(
    records: Iterable[dict],
    shard: SessionShard,
    shards: int,
    meter: ShardTenantMeter | None = None,
) -> int:
    """Rebuild one shard's state from the journal; returns rounds stepped.

    ``shard`` must be freshly constructed (same capacity, policy, speed,
    and engine as the one that died).  Jobs are filtered to the shard's
    colors with the same :func:`shard_of` routing the live server uses,
    and rounds are stepped in journal order, so the rebuilt simulator's
    component digests are byte-identical to an uninterrupted run.

    With ``meter`` supplied, tenant registrations re-install this shard's
    share and the token buckets are replayed too: marked submits only
    ever contain admitted jobs (sheds never reach the journal), so the
    debit/refill fold lands on exactly the live meter's token counts.
    """
    stepped = 0
    for op, payload in replay_ops(records):
        if op == "submit":
            mine = [
                job
                for job in payload  # type: ignore[union-attr]
                if shard_of(job.color, shards) == shard.shard_id
            ]
            shard.live.push_many(mine)
            if meter is not None:
                meter.debit(mine)
        elif op == "round":
            shard.step(payload)  # type: ignore[arg-type]
            stepped += 1
            if meter is not None:
                meter.refill()
        else:  # tenant registration
            contract = TenantContract.from_dict(payload)  # type: ignore[arg-type]
            shares = shard_shares(contract, shards)
            if meter is not None and shard.shard_id in shares:
                rate, burst = shares[shard.shard_id]
                colors = [
                    c
                    for c in contract.colors
                    if shard_of(c, shards) == shard.shard_id
                ]
                meter.register(contract.name, colors, rate, burst)
    return stepped


def replay_session(
    records: Iterable[dict],
    session: ShardedSession,
) -> int:
    """Rebuild a whole in-process session; returns rounds stepped.

    The crash-recovery path for single-process serve (and the oracle the
    per-shard replay is tested against): marked submits go through the
    session's own admission gate, rounds through :meth:`tick`, tenant
    registrations through :meth:`register_tenant`.  Journaled submits
    carry only admitted jobs, so replay sheds nothing and the rebuilt
    meters match the live ones exactly.
    """
    stepped = 0
    for op, payload in replay_ops(records):
        if op == "submit":
            session.submit(payload)  # type: ignore[arg-type]
        elif op == "round":
            session.tick()
            stepped += 1
        else:
            session.register_tenant(
                TenantContract.from_dict(payload)  # type: ignore[arg-type]
            )
    return stepped

"""The ``repro-serve-v1`` wire protocol.

Newline-delimited JSON over a byte stream: every frame is one JSON
object on one line, with a ``type`` field.  The protocol is
deliberately small — seven client frame types, and server frames that
mirror them:

Client → server
    ``hello``   open a session view: ``{"type": "hello", "proto":
                "repro-serve-v1", "client": "...", "subscribe": true}``.
    ``submit``  offer jobs: ``{"type": "submit", "jobs": [{"color": ...,
                "delay_bound": D, "arrival": r?, "uid": u?}], "id": ...?}``.
                Admission is atomic: the whole frame is accepted or
                rejected with a reason.
    ``tick``    advance the round clock (client-clock servers only):
                ``{"type": "tick", "rounds": 1?}``.
    ``stats``   request the deterministic session snapshot (per-shard
                ledgers and digests).
    ``tenant_register``  register a tenant contract: ``{"type":
                "tenant_register", "tenant": {"name": ..., "colors":
                [...], "rate": "1/2", "delay_bound": D, "burst": B?}}``.
                Answered with ``tenant_ok`` (per-shard placement) or
                ``reject`` with a structured BDR reason.
    ``tenant_stats``  request per-tenant contracts and
                submitted/admitted/shed counters.
    ``bye``     close the connection cleanly.

Server → client
    ``welcome`` session parameters (shards, capacities, delta, speed,
                policy, engine, clock, current round).
    ``accept`` / ``reject``  the verdict on one submit frame; rejects
                carry a machine-readable ``reason`` (``stale_round``,
                ``inconsistent_delay_bound``, ``backpressure``,
                ``duplicate_uid``, ``bad_frame``, ``closed``,
                ``timer_clock``) — the server never silently drops a
                job beyond the model's own deadline drops.  When tenants
                are registered, ``accept`` additionally carries ``shed``
                (count) and ``shed_uids`` for the jobs the submitter's
                over-rate tenants lost; ``count`` is the jobs actually
                admitted.  Without tenants these fields never appear and
                the frame is byte-identical to the tenant-free protocol.
    ``tenant_ok`` / ``tenant_stats``  replies to the tenant frames.
    ``result``  one per ticked round: executed/dropped uids, recolored
                locations, per-round cost delta.
    ``stats``   the snapshot reply.
    ``error``   a malformed frame (connection stays open when possible),
                or an idle disconnect (``code: "idle_timeout"``) when a
                non-subscriber sends nothing for the server's configured
                idle window, or ``code: "journal_failed"`` when the
                server's journal refused a record: nothing more is
                committed and the server stops.
    ``bye``     goodbye echo.

Colors use the same codec as traces and schedules
(:func:`repro.core.request.encode_color`), so any color an offline
instance can hold round-trips the wire unchanged.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.core.job import Job
from repro.core.request import decode_color, encode_color

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "job_from_wire",
    "job_to_wire",
]

PROTOCOL = "repro-serve-v1"

#: one frame must fit one stream-reader buffer; anything bigger is hostile.
MAX_FRAME_BYTES = 1 << 20

#: frame types a server accepts.
CLIENT_FRAMES = frozenset(
    {"hello", "submit", "tick", "stats", "tenant_register", "tenant_stats", "bye"}
)


class ProtocolError(ValueError):
    """A malformed frame; ``code`` is the machine-readable category."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def encode_frame(frame: Mapping) -> bytes:
    """One frame as a compact JSON line (UTF-8, newline-terminated)."""
    return (
        json.dumps(frame, sort_keys=True, separators=(",", ":"), default=str)
        + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes | str) -> dict:
    """Parse one line into a frame dict; raises :class:`ProtocolError`."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_json", f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad_frame", "frame must be a JSON object")
    kind = obj.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("bad_frame", "frame is missing a string 'type'")
    return obj


def job_to_wire(job: Job) -> dict:
    """The wire form of one job (uid included, so replays are exact)."""
    return {
        "color": encode_color(job.color),
        "arrival": job.arrival,
        "delay_bound": job.delay_bound,
        "uid": job.uid,
    }


def _int_field(value: object, key: str, minimum: int) -> int:
    """``value`` as the integer job field ``key``, or a ``bad_job`` error."""
    # bool is an int subclass; a job with delay_bound=true is a client bug.
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, int)
    ):
        raise ProtocolError("bad_job", f"job field {key!r} must be an integer")
    if value < minimum:
        raise ProtocolError(
            "bad_job", f"job field {key!r} must be >= {minimum}, got {value}"
        )
    return value


def job_from_wire(obj: object, default_arrival: int) -> Job:
    """Validate and decode one wire job.

    ``arrival`` defaults to ``default_arrival`` (the session's next
    round) so fire-and-forget clients can omit it; ``uid`` defaults to a
    fresh server-side id so only replay clients need to manage ids.

    The shape every client sends (a ``dict`` with an int or str color,
    an int arrival >= 0, an int delay bound >= 1 and an int uid >= 0)
    is recognised by one expression of exact-type tests and built
    straight away; anything else takes the rule-by-rule path below,
    which raises every :class:`ProtocolError`.  Exact-type tests come
    first there too, so JSON objects skip the ABC checks, and int and
    str colors need no decoding.
    """
    if (
        type(obj) is dict
        and type(uid := obj.get("uid")) is int
        and type(delay_bound := obj.get("delay_bound")) is int
        and type(arrival := obj.get("arrival")) is int
        and ((kind := type(color := obj.get("color"))) is int or kind is str)
        and uid >= 0
        and delay_bound >= 1
        and arrival >= 0
    ):
        return Job(color, arrival, delay_bound, uid)
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise ProtocolError("bad_job", "each job must be a JSON object")
    color = obj.get("color")
    if color is None:
        raise ProtocolError("bad_job", "job is missing a non-null 'color'")
    if "delay_bound" not in obj:
        raise ProtocolError("bad_job", "job is missing 'delay_bound'")
    delay_bound = _int_field(obj["delay_bound"], "delay_bound", 1)
    arrival = obj.get("arrival")
    arrival = (
        default_arrival if arrival is None else _int_field(arrival, "arrival", 0)
    )
    uid = obj.get("uid")
    if uid is not None:
        uid = _int_field(uid, "uid", 0)
    try:
        kind = type(color)
        if kind is not int and kind is not str:
            color = decode_color(color)
            # Pools, ledgers and shard routing key on the color: refuse an
            # unhashable one (a list, an object) here, not inside the session.
            hash(color)
        if uid is None:
            return Job(color, arrival, delay_bound)
        return Job(color, arrival, delay_bound, uid)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_job", str(exc)) from None

"""Instance persistence: save and load full instances as JSON traces.

A trace file carries the request sequence (jobs with uids), ``Delta``, the
instance name and its metadata, so an experiment can be re-run bit-for-bit
elsewhere: ``repro trace --workload router --out router.json`` then
``repro solve --trace router.json --n 12``.
"""

from __future__ import annotations

import json
import pathlib

from repro.core.request import Instance, RequestSequence


def instance_to_json(instance: Instance) -> str:
    """Serialize an instance (sequence + Delta + metadata) to JSON."""
    payload = {
        "format": "repro-trace-v1",
        "name": instance.name,
        "delta": instance.delta,
        "metadata": _plain(instance.metadata),
        "sequence": json.loads(instance.sequence.to_json()),
    }
    return json.dumps(payload, indent=1)


def instance_from_json(text: str) -> Instance:
    """Inverse of :func:`instance_to_json`; raises ``ValueError`` on
    anything that is not a well-formed trace."""
    payload = json.loads(text)
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != "repro-trace-v1":
        raise ValueError(f"not a repro trace (format={fmt!r})")
    try:
        sequence = RequestSequence.from_json(json.dumps(payload["sequence"]))
        return Instance(
            sequence,
            payload["delta"],
            name=payload.get("name", ""),
            metadata=payload.get("metadata", {}),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"malformed repro trace ({type(exc).__name__}: {exc})"
        ) from None


def save_instance(instance: Instance, path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(instance_to_json(instance))


def load_instance(path: str | pathlib.Path) -> Instance:
    return instance_from_json(pathlib.Path(path).read_text())


def _plain(value):
    """Make metadata JSON-encodable (numpy scalars, tuples -> lists)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def instance_from_csv(
    text: str,
    delta: int | float,
    name: str = "csv",
) -> Instance:
    """Build an instance from CSV rows of ``color,arrival,delay_bound``.

    For importing real traces: colors may be arbitrary strings or ints, a
    header row (``color,arrival,delay_bound``) is skipped if present, blank
    lines and ``#`` comments are ignored.  Per-color delay-bound consistency
    is enforced (the model's requirement).
    """
    from repro.core.job import Job

    jobs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'color,arrival,delay_bound', got {raw!r}"
            )
        if parts == ["color", "arrival", "delay_bound"]:
            continue
        color: object = int(parts[0]) if parts[0].lstrip("-").isdigit() else parts[0]
        try:
            arrival, bound = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        jobs.append(Job(color=color, arrival=arrival, delay_bound=bound))
    sequence = RequestSequence(jobs)
    sequence.delay_bounds()  # enforce per-color consistency
    return Instance(sequence, delta, name=name)


def load_csv(path: str | pathlib.Path, delta: int | float) -> Instance:
    """Read a ``color,arrival,delay_bound`` CSV file into an instance."""
    p = pathlib.Path(path)
    return instance_from_csv(p.read_text(), delta, name=p.stem)

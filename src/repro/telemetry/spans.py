"""Span traces (``repro-trace-v2``), the one trace format.

A *span* records one step; spans form a tree per ``trace_id``.  Two
sources write them:

- ``repro serve --spans``: one tree per submitted batch — the submit
  itself (the root), per-shard admission votes, the WAL intent and
  commit markers, the cross-worker commit, and the execution or drop of
  each job;
- a run traced with ``--telemetry``: one tree per
  :meth:`~repro.core.simulator.Simulator.run` — a ``run`` root with the
  engine parameters, one ``round`` child per round (its counters and
  ledger delta) and a ``summary`` child mirroring ``ledger.summary()``.

:func:`build_traces` reconstructs the trees and :func:`render_trace`
pretty-prints the timeline ``repro spans`` shows.

**Determinism contract.**  Trace ids come from a counter (``t000001``,
...), span ids derive from the trace id plus the step name, and
positions are round/sequence coordinates the digest-stable core already
produces.  Wall-clock durations appear only as a serve span's
``wall_ms`` annotation, which :func:`normalize_span` strips, so golden
tests pin everything else byte-for-byte; run spans carry none, so two
traces of one run are byte-identical.  Emitting spans never feeds back
into scheduling.

File format: one JSON object per line.  The first record is a ``header``
with ``schema: repro-trace-v2``; every following record is a ``span``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from repro.utils.jsonl import json_line

SPAN_SCHEMA = "repro-trace-v2"

#: canonical step names, in lifecycle order (used for child sorting).
SPAN_NAMES = (
    "submit", "admit", "wal.intent", "wal.commit", "commit",
    "execute", "drop", "reject", "run", "round", "summary",
)
_NAME_ORDER = {name: i for i, name in enumerate(SPAN_NAMES)}

__all__ = [
    "SPAN_SCHEMA",
    "SPAN_NAMES",
    "SpanWriter",
    "build_traces",
    "normalize_span",
    "read_spans",
    "render_trace",
    "render_traces",
]


def mint_trace_id(seq: int) -> str:
    """The deterministic trace id for sequence number ``seq``."""
    return f"t{seq:06d}"


class SpanWriter:
    """Writes a ``repro-trace-v2`` stream: a header, then span records.

    Given a path, the writer opens the file and closes it on
    :meth:`close`; given an open stream, it flushes the stream and leaves
    it open.  Records are buffered, not flushed per span.  The header is
    written eagerly at construction so even an empty run produces a
    self-describing file.
    """

    def __init__(self, destination: str | IO[str], **header: object):
        if hasattr(destination, "write"):
            self._fh: IO[str] = destination  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(destination, "w", encoding="utf-8")
            self._owns = True
        self._traces = 0
        self._fh.write(
            json_line({"kind": "header", "schema": SPAN_SCHEMA, **header})
        )

    def new_trace(self) -> str:
        """Mint this writer's next trace id (``t000001``, ``t000002``, ...)."""
        self._traces += 1
        return mint_trace_id(self._traces)

    def span(
        self,
        trace: str,
        name: str,
        *,
        parent: str | None = None,
        span_id: str | None = None,
        round: int | None = None,
        shard: int | None = None,
        seq: int | None = None,
        wall_ms: float | None = None,
        **attrs: object,
    ) -> str:
        """Emit one span record; returns its span id.

        ``span_id`` defaults to ``{trace}/{name}`` (with ``/{shard}``
        appended when a shard is given) — deterministic, collision-free
        within a trace for the serve lifecycle.  ``wall_ms`` is the only
        nondeterministic field permitted.
        """
        if span_id is None:
            span_id = f"{trace}/{name}" if shard is None else f"{trace}/{name}/{shard}"
        record: dict = {"kind": "span", "trace": trace, "id": span_id, "name": name}
        if parent is not None:
            record["parent"] = parent
        if round is not None:
            record["round"] = round
        if shard is not None:
            record["shard"] = shard
        if seq is not None:
            record["seq"] = seq
        if attrs:
            record["attrs"] = dict(sorted(attrs.items()))
        if wall_ms is not None:
            record["wall_ms"] = round_wall(wall_ms)
        self._fh.write(json_line(record))
        return span_id

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def round_wall(wall_ms: float) -> float:
    """Round a wall-clock annotation to microsecond granularity."""
    return round(wall_ms, 3)


def normalize_span(record: Mapping) -> dict:
    """A copy of ``record`` with the ``wall_ms`` annotation removed.

    Everything left is deterministic; golden tests compare normalized
    spans byte-for-byte across runs.
    """
    return {k: v for k, v in record.items() if k != "wall_ms"}


def read_spans(source: str | Path | Iterable[str]) -> tuple[dict | None, list[dict]]:
    """Read a span file (or iterable of lines) -> ``(header, spans)``.

    Lines that are not v2 records are skipped, and a torn final line —
    the crash case — is ignored, same as the journal reader's convention.
    """
    if isinstance(source, (str, Path)):
        lines: Iterator[str] = iter(
            Path(source).read_text(encoding="utf-8").splitlines()
        )
    else:
        lines = iter(source)
    header: dict | None = None
    spans: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        if kind == "header" and record.get("schema") == SPAN_SCHEMA:
            header = record
        elif kind == "span":
            spans.append(record)
    return header, spans


def build_traces(spans: Iterable[Mapping]) -> dict[str, dict]:
    """Group spans into per-trace trees.

    Returns ``{trace_id: {"root": span | None, "nodes": {id: span},
    "children": {id: [child ids]}}}``.  Children keep lifecycle order:
    sorted by (step order, shard, emission index) — deterministic for a
    given span stream regardless of how a reader later shuffles them.
    """
    traces: dict[str, dict] = {}
    for index, span in enumerate(spans):
        trace = span.get("trace")
        if trace is None:
            continue
        entry = traces.setdefault(
            trace, {"root": None, "nodes": {}, "children": {}, "_order": {}}
        )
        sid = span["id"]
        entry["nodes"][sid] = dict(span)
        entry["_order"][sid] = index
        parent = span.get("parent")
        if parent is None:
            entry["root"] = dict(span)
        else:
            entry["children"].setdefault(parent, []).append(sid)

    def _sort_key(entry: dict, sid: str):
        span = entry["nodes"][sid]
        return (
            _NAME_ORDER.get(span.get("name"), len(SPAN_NAMES)),
            span.get("shard") if span.get("shard") is not None else -1,
            entry["_order"][sid],
        )

    for entry in traces.values():
        for parent, kids in entry["children"].items():
            kids.sort(key=lambda sid: _sort_key(entry, sid))
        del entry["_order"]
    return dict(sorted(traces.items()))


def _span_line(span: Mapping) -> str:
    parts = [span.get("name", "?")]
    for field in ("round", "shard", "seq"):
        if span.get(field) is not None:
            parts.append(f"{field}={span[field]}")
    for key, value in (span.get("attrs") or {}).items():
        parts.append(f"{key}={value}")
    if span.get("wall_ms") is not None:
        parts.append(f"[{span['wall_ms']:.3f}ms]")
    return "  ".join(str(p) for p in parts)


def render_trace(trace_id: str, entry: Mapping) -> str:
    """Pretty-print one trace tree (the ``repro spans`` output unit)."""
    lines = [f"trace {trace_id}"]
    root = entry.get("root")
    if root is None:
        # Orphaned spans (root lost to a torn file): list them flat.
        for sid in sorted(entry["nodes"]):
            lines.append(f"  ?? {_span_line(entry['nodes'][sid])}")
        return "\n".join(lines)

    def _walk(sid: str, prefix: str, is_last: bool) -> None:
        span = entry["nodes"][sid]
        branch = "└─ " if is_last else "├─ "
        lines.append(prefix + branch + _span_line(span))
        kids = entry["children"].get(sid, [])
        child_prefix = prefix + ("   " if is_last else "│  ")
        for i, kid in enumerate(kids):
            _walk(kid, child_prefix, i == len(kids) - 1)

    lines.append("└─ " + _span_line(root))
    kids = entry["children"].get(root["id"], [])
    for i, kid in enumerate(kids):
        _walk(kid, "   ", i == len(kids) - 1)
    return "\n".join(lines)


def render_traces(
    spans: Iterable[Mapping],
    trace: str | None = None,
    limit: int | None = None,
) -> str:
    """Render every trace tree (or just ``trace``), newest last."""
    traces = build_traces(spans)
    if trace is not None:
        if trace not in traces:
            known = ", ".join(sorted(traces)) or "(none)"
            return f"no such trace {trace!r}; traces in file: {known}"
        return render_trace(trace, traces[trace])
    items = list(traces.items())
    if limit is not None and limit >= 0:
        items = items[-limit:]
    blocks = [render_trace(tid, entry) for tid, entry in items]
    if not blocks:
        return "(no spans)"
    return "\n".join(blocks)

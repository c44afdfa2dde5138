"""The metrics registry: counters, gauges, fixed-bucket histograms.

Metric identity is ``(name, labels)`` where labels are serialized once into
a canonical ``key="value"`` string (sorted by key), so snapshots are plain
JSON-able dicts with deterministic iteration order and can cross process
boundaries (the parallel runner merges per-worker snapshots in request
order).

Histograms use *fixed* bucket boundaries chosen per metric name at
registration time (:data:`BUCKETS`, falling back to
:data:`DEFAULT_BUCKETS`).  Fixed boundaries make merges exact: two
snapshots of the same metric always have congruent bucket arrays, so
aggregation is element-wise addition — no re-binning, no approximation.

Merge semantics (:func:`merge_snapshots`): counters and histogram cells
add; gauges take the maximum.  Addition and max are commutative and
associative, so the merged aggregate is independent of worker completion
order — the same determinism rule the runner applies to everything else.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, Mapping

SCHEMA = "repro-metrics-v1"

#: default histogram boundaries: generic small-integer sizes (diff sizes,
#: dirty sets, pending pools).  The implicit final bucket is +Inf.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: per-metric boundary overrides, pinned at first observation.
BUCKETS: dict[str, tuple[float, ...]] = {
    "repro_phase_seconds": (
        1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1, 1.0,
    ),
    "repro_task_seconds": (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0),
    # Live round latency: sub-millisecond engine work up to stalled seconds.
    "repro_serve_round_seconds": (
        1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 0.1, 0.5, 1.0,
    ),
    # Submit admission latency: validate + WAL fsync + commit.  Same shape
    # as round latency but shifted down — admission does no engine work.
    "repro_serve_admission_seconds": (
        5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 0.1, 0.5,
    ),
}


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format escaping: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


_UNESCAPE_RE = re.compile(r'\\(["\\n])')
_UNESCAPE_MAP = {'"': '"', "\\": "\\", "n": "\n"}


def _unescape_label_value(value: str) -> str:
    return _UNESCAPE_RE.sub(
        lambda m: _UNESCAPE_MAP[m.group(1)], value
    )


def label_key(labels: Mapping[str, object]) -> str:
    """Canonical label serialization: ``a="x",b="y"`` sorted by label name.

    Values are escaped exposition-style (``\\`` ``\"`` and newline), so a
    label value carrying a quote or comma — tenant names are free-form —
    still serializes to one unambiguous key.
    """
    if not labels:
        return ""
    return ",".join(
        f'{k}="{_escape_label_value(str(labels[k]))}"' for k in sorted(labels)
    )


#: one ``name="escaped-value"`` segment of a canonical label key.
_SEGMENT_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_label_key(key: str) -> dict[str, str]:
    """Invert :func:`label_key`: ``'a="x",b="y"'`` -> ``{"a": "x", "b": "y"}``.

    Only the canonical form the registry itself emits is accepted.
    Escaped values round-trip exactly: ``label_key({"a": 'x"y'})`` parses
    back to ``{"a": 'x"y'}``.
    """
    if not key:
        return {}
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(key):
        match = _SEGMENT_RE.match(key, pos)
        if match is None:
            raise ValueError(
                f"malformed label key segment at offset {pos} in {key!r}"
            )
        labels[match.group(1)] = _unescape_label_value(match.group(2))
        pos = match.end()
        if pos < len(key):
            if key[pos] != ",":
                raise ValueError(
                    f"malformed label key segment at offset {pos} in {key!r}"
                )
            pos += 1
            if pos >= len(key):  # trailing comma is not canonical
                raise ValueError(f"malformed label key {key!r}")
    return labels


def relabel_snapshot(snapshot: Mapping, **extra: object) -> dict:
    """A copy of ``snapshot`` with ``extra`` labels added to every series.

    Used by the serve frontend to tag each worker's snapshot with its
    ``worker``/``shard`` identity before merging, so per-worker series
    stay distinguishable in the aggregated ``/metrics`` output.  Existing
    labels win on collision (a worker's own ``shard=`` label is already
    correct; stamping over it would lie).
    """

    def _rekey(key: str) -> str:
        labels = {**{k: str(v) for k, v in extra.items()}, **parse_label_key(key)}
        return label_key(labels)

    out = _empty_snapshot()
    for kind in ("counters", "gauges"):
        for name, series in snapshot.get(kind, {}).items():
            dst = out[kind].setdefault(name, {})
            for key, value in series.items():
                dst[_rekey(key)] = value
        out[kind] = {
            n: dict(sorted(s.items())) for n, s in sorted(out[kind].items())
        }
    for name, series in snapshot.get("histograms", {}).items():
        dst = out["histograms"].setdefault(name, {})
        for key, cell in series.items():
            dst[_rekey(key)] = {
                "bounds": list(cell["bounds"]),
                "buckets": list(cell["buckets"]),
                "sum": cell["sum"],
                "count": cell["count"],
            }
    out["histograms"] = {
        n: dict(sorted(s.items())) for n, s in sorted(out["histograms"].items())
    }
    return out


class MetricsRegistry:
    """Accumulates counters, gauges, and histograms for one process."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        #: name -> label_key -> value
        self._counters: dict[str, dict[str, int | float]] = {}
        self._gauges: dict[str, dict[str, float]] = {}
        #: name -> label_key -> [bucket counts..., +Inf count] plus sum/count
        self._histograms: dict[str, dict[str, dict]] = {}

    # -- instruments ----------------------------------------------------------

    def count(self, name: str, value: int | float = 1, **labels: object) -> None:
        """Increment counter ``name`` by ``value`` (must be nonnegative)."""
        if value < 0:
            raise ValueError(f"counter increments must be nonnegative, got {value}")
        series = self._counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set gauge ``name`` to ``value`` (last write wins in-process)."""
        self._gauges.setdefault(name, {})[label_key(labels)] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into histogram ``name``."""
        series = self._histograms.setdefault(name, {})
        key = label_key(labels)
        cell = series.get(key)
        if cell is None:
            bounds = BUCKETS.get(name, DEFAULT_BUCKETS)
            cell = series[key] = {
                "bounds": list(bounds),
                "buckets": [0] * (len(bounds) + 1),
                "sum": 0.0,
                "count": 0,
            }
        cell["buckets"][bisect_left(cell["bounds"], value)] += 1
        cell["sum"] += value
        cell["count"] += 1

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able copy of everything recorded, deterministically ordered."""
        return {
            "schema": SCHEMA,
            "counters": {
                name: dict(sorted(series.items()))
                for name, series in sorted(self._counters.items())
            },
            "gauges": {
                name: dict(sorted(series.items()))
                for name, series in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    key: {
                        "bounds": list(cell["bounds"]),
                        "buckets": list(cell["buckets"]),
                        "sum": cell["sum"],
                        "count": cell["count"],
                    }
                    for key, cell in sorted(series.items())
                }
                for name, series in sorted(self._histograms.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def _empty_snapshot() -> dict:
    return {"schema": SCHEMA, "counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Aggregate snapshots: counters/histograms add, gauges take the max.

    Both operations are commutative and associative, so the result is the
    same for any merge order — per-worker snapshots can be combined in
    request order and still be independent of completion order.
    """
    out = _empty_snapshot()
    for snap in snapshots:
        if not snap:
            continue
        for name, series in snap.get("counters", {}).items():
            dst = out["counters"].setdefault(name, {})
            for key, value in series.items():
                dst[key] = dst.get(key, 0) + value
        for name, series in snap.get("gauges", {}).items():
            dst = out["gauges"].setdefault(name, {})
            for key, value in series.items():
                dst[key] = max(dst[key], value) if key in dst else value
        for name, series in snap.get("histograms", {}).items():
            dst = out["histograms"].setdefault(name, {})
            for key, cell in series.items():
                have = dst.get(key)
                if have is None:
                    dst[key] = {
                        "bounds": list(cell["bounds"]),
                        "buckets": list(cell["buckets"]),
                        "sum": cell["sum"],
                        "count": cell["count"],
                    }
                    continue
                if have["bounds"] != list(cell["bounds"]):
                    raise ValueError(
                        f"histogram {name!r}: incompatible bucket boundaries "
                        f"{have['bounds']} vs {cell['bounds']}"
                    )
                have["buckets"] = [
                    a + b for a, b in zip(have["buckets"], cell["buckets"])
                ]
                have["sum"] += cell["sum"]
                have["count"] += cell["count"]
    # Re-sort so merged output is as deterministic as a single snapshot.
    out["counters"] = {
        n: dict(sorted(s.items())) for n, s in sorted(out["counters"].items())
    }
    out["gauges"] = {
        n: dict(sorted(s.items())) for n, s in sorted(out["gauges"].items())
    }
    out["histograms"] = {
        n: dict(sorted(s.items())) for n, s in sorted(out["histograms"].items())
    }
    return out


def render_table(snapshot: Mapping, title: str = "telemetry"):
    """Human-readable table of a snapshot (see ``repro metrics``)."""
    from repro.analysis.reporting import Table

    table = Table(["metric", "labels", "type", "value"], title=title)
    for name, series in snapshot.get("counters", {}).items():
        for key, value in series.items():
            table.add_row(name, key or "-", "counter", value)
    for name, series in snapshot.get("gauges", {}).items():
        for key, value in series.items():
            table.add_row(name, key or "-", "gauge", value)
    for name, series in snapshot.get("histograms", {}).items():
        for key, cell in series.items():
            mean = cell["sum"] / cell["count"] if cell["count"] else 0.0
            table.add_row(
                name,
                key or "-",
                "histogram",
                f"count={cell['count']} sum={cell['sum']:.6g} mean={mean:.6g}",
            )
    return table

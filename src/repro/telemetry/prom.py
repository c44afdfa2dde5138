"""Prometheus text-exposition rendering and parsing of metrics snapshots.

Implements the subset of the text format (version 0.0.4) the registry can
produce: ``# HELP`` / ``# TYPE`` comment lines, then one sample per
series.  Histograms expand to cumulative ``_bucket`` samples (``le``
label, ``+Inf`` last), plus ``_sum`` and ``_count`` — exactly the shape
scrapers expect, so ``repro metrics --format prom`` output can be dropped
into a node-exporter textfile collector unchanged.

:func:`parse_prometheus` is the exact inverse for text this module
rendered — ``parse_prometheus(render_prometheus(snap)) == snap`` — which
is what lets ``repro metrics --url`` and ``repro top`` scrape a live
``/metrics`` endpoint and reuse every snapshot-based renderer unchanged.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.telemetry.registry import SCHEMA, _unescape_label_value, label_key

#: metric documentation surfaced as `# HELP` lines.
HELP: dict[str, str] = {
    "repro_rounds_total": "Rounds simulated.",
    "repro_mini_rounds_total": "Mini-rounds (reconfig+execute repeats) simulated.",
    "repro_drops_total": "Jobs dropped at their deadline.",
    "repro_arrivals_total": "Jobs delivered by the arrival phase.",
    "repro_executions_total": "Jobs executed.",
    "repro_reconfigs_total": "Locations recolored (each costs Delta).",
    "repro_phase_seconds": "Wall time per simulator phase.",
    "repro_pending_jobs": "Pending-pool size after the last simulated round.",
    "repro_bank_noop_total": "Reconfigurations short-circuited by the no-op fast path.",
    "repro_bank_diff_size": "Locations recolored per non-empty reconfiguration diff.",
    "repro_idle_flips_size": "Colors per consumed idle-flip batch.",
    "repro_ranking_dirty_size": "Colors re-keyed per ranking refresh.",
    "repro_desired_cache_hits_total": "Desired-list cache hits (list reused verbatim).",
    "repro_desired_cache_misses_total": "Desired-list cache misses (ranking walked).",
    "repro_runner_tasks_total": "Runner tasks executed, by cache outcome.",
    "repro_task_seconds": "Wall time per runner task.",
    "repro_serve_connections_total": "Protocol connections accepted by the serve layer.",
    "repro_serve_frames_total": "Client frames processed, by frame type.",
    "repro_serve_jobs_total": "Jobs admitted by the serve layer.",
    "repro_serve_rejects_total": "Submit batches rejected, by reason.",
    "repro_serve_ticks_total": "Rounds advanced by the serve layer's clock.",
    "repro_serve_round_seconds": "Wall time per live round (all shards).",
    "repro_serve_admission_seconds": "Wall time per submit: validate, WAL, commit.",
    "repro_serve_pending_jobs": "In-flight jobs after the last live round.",
    "repro_serve_worker_respawns_total": "Shard worker processes respawned after a failure.",
    "repro_serve_worker_commits_total": "Job batches committed into shard workers.",
    "repro_serve_worker_scrape_failures_total": "Worker telemetry scrapes that timed out or failed.",
    "repro_serve_subscribers_dropped_total": "Broadcast subscribers dropped for falling behind.",
    "repro_serve_spans_total": "Span records emitted by the serve layer, by kind.",
    "repro_rounds_unparsed_cells_total": "Result cells skipped by round accounting as unparsable.",
    "repro_serve_tenants": "Tenant contracts currently registered.",
    "repro_serve_tenant_submitted_total": "Jobs submitted under a tenant contract, by tenant.",
    "repro_serve_tenant_admitted_total": "Tenant jobs admitted after token-bucket metering, by tenant.",
    "repro_serve_tenant_shed_total": "Tenant jobs shed for exceeding the contract rate, by tenant.",
    "repro_serve_tenant_rejects_total": "Tenant registrations rejected, by reason.",
    "repro_serve_idle_disconnects_total": "Client connections closed at the idle-read timeout.",
}


def _fnum(value: float) -> str:
    """A float literal Prometheus parsers accept (no trailing noise)."""
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(float(value))


def _series_name(name: str, labels: str, extra: str = "") -> str:
    merged = ",".join(part for part in (labels, extra) if part)
    return f"{name}{{{merged}}}" if merged else name


def render_prometheus(snapshot: Mapping) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []

    def _head(name: str, kind: str) -> None:
        help_text = HELP.get(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for name, series in snapshot.get("counters", {}).items():
        _head(name, "counter")
        for labels, value in series.items():
            lines.append(f"{_series_name(name, labels)} {_fnum(value)}")

    for name, series in snapshot.get("gauges", {}).items():
        _head(name, "gauge")
        for labels, value in series.items():
            lines.append(f"{_series_name(name, labels)} {_fnum(value)}")

    for name, series in snapshot.get("histograms", {}).items():
        _head(name, "histogram")
        for labels, cell in series.items():
            cumulative = 0
            for bound, count in zip(
                list(cell["bounds"]) + [float("inf")], cell["buckets"]
            ):
                cumulative += count
                sample = _series_name(name + "_bucket", labels, f'le="{_fnum(bound)}"')
                lines.append(f"{sample} {cumulative}")
            lines.append(f"{_series_name(name + '_sum', labels)} {_fnum(cell['sum'])}")
            lines.append(
                f"{_series_name(name + '_count', labels)} {cell['count']}"
            )

    return "\n".join(lines) + "\n" if lines else ""


_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)\s*$"
)


def _parse_value(text: str) -> int | float:
    if text == "+Inf":
        return float("inf")
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse text-exposition output back into a registry snapshot.

    The inverse of :func:`render_prometheus` for text it produced:
    ``# TYPE`` lines assign each family to counters/gauges/histograms,
    histogram ``_bucket`` samples are de-cumulated back into per-bucket
    counts and their ``le`` bounds become the cell's ``bounds``.  Unknown
    sample lines (a family with no preceding ``# TYPE``) are treated as
    untyped gauges, so scraping a foreign exporter degrades instead of
    crashing.
    """
    types: dict[str, str] = {}
    snapshot: dict = {"schema": SCHEMA, "counters": {}, "gauges": {}, "histograms": {}}
    #: histogram accumulation: name -> label_key(without le) -> working cell
    working: dict[str, dict[str, dict]] = {}

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparsable sample line: {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels = {
            k: _unescape_label_value(v)
            for k, v in _LABEL_RE.findall(raw_labels or "")
        }
        value = _parse_value(raw_value)

        base, suffix = name, ""
        for candidate in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(candidate)]
            if name.endswith(candidate) and types.get(stripped) == "histogram":
                base, suffix = stripped, candidate
                break
        if suffix:
            le = labels.pop("le", None)
            key = label_key(labels)
            cell = working.setdefault(base, {}).setdefault(
                key, {"le": [], "cum": [], "sum": 0.0, "count": 0}
            )
            if suffix == "_bucket":
                cell["le"].append(float("inf") if le == "+Inf" else float(le))
                cell["cum"].append(value)
            elif suffix == "_sum":
                cell["sum"] = value
            else:
                cell["count"] = value
            continue

        kind = types.get(name, "gauge")
        dst = snapshot["counters" if kind == "counter" else "gauges"]
        dst.setdefault(name, {})[label_key(labels)] = value

    for name, series in working.items():
        dst = snapshot["histograms"].setdefault(name, {})
        for key, cell in series.items():
            pairs = sorted(zip(cell["le"], cell["cum"]))
            bounds = [le for le, _ in pairs if le != float("inf")]
            cumulative = [cum for _, cum in pairs]
            buckets, previous = [], 0
            for cum in cumulative:
                buckets.append(cum - previous)
                previous = cum
            dst[key] = {
                "bounds": bounds,
                "buckets": buckets,
                "sum": cell["sum"],
                "count": cell["count"],
            }

    for kind in ("counters", "gauges", "histograms"):
        snapshot[kind] = {
            n: dict(sorted(s.items())) for n, s in sorted(snapshot[kind].items())
        }
    return snapshot

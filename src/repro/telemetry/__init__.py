"""Process-local telemetry: metrics registry, span traces, recorders.

The paper's cost model is about *where* cost accrues — drops versus
``Delta``-reconfigurations, round by round — yet until this layer existed
the reproduction could only report end-of-run ledger totals.
``repro.telemetry`` makes the trajectory visible:

- :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges,
  and fixed-bucket histograms, labelled, mergeable across processes;
- :class:`~repro.telemetry.spans.SpanWriter` — the JSONL span trace
  (schema ``repro-trace-v2``) of a run (a ``run`` root, one ``round``
  span per round, a ``summary``) or of a server's requests;
- :class:`TelemetryRecorder` — the live recorder the engine layers talk
  to; :class:`NullRecorder` — the default, whose every method is a no-op.

**The off switch is the contract.**  Every instrumentation site in the
hot path is guarded by one ``enabled`` attribute read, and the default
process-global recorder is a :class:`NullRecorder`, so a run that never
asked for telemetry pays (almost) nothing.

**Telemetry never affects results.**  Recorders observe the engine; they
are never consulted by it.  Ledgers, schedules, event logs — and
therefore the bit-identity digests from PR 2 — are byte-identical with
telemetry on or off (``tests/core/test_telemetry.py`` and the telemetry
leg of ``tests/experiments/test_hashseed_determinism.py`` both enforce
this).

Usage::

    from repro import telemetry

    with telemetry.recording(telemetry.TelemetryRecorder()) as rec:
        simulate(instance, policy, n=16)
    print(telemetry.render_table(rec.snapshot()))
"""

from __future__ import annotations

from repro.telemetry.prom import parse_prometheus, render_prometheus
from repro.telemetry.quantiles import exact_quantile, histogram_quantile, quantile_summary
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    relabel_snapshot,
    render_table,
)
from repro.telemetry.recorder import (
    NullRecorder,
    Recorder,
    TelemetryRecorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.telemetry.spans import (
    SPAN_SCHEMA,
    SpanWriter,
    build_traces,
    normalize_span,
    read_spans,
    render_traces,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "SPAN_SCHEMA",
    "SpanWriter",
    "TelemetryRecorder",
    "build_traces",
    "exact_quantile",
    "get_recorder",
    "histogram_quantile",
    "merge_snapshots",
    "normalize_span",
    "parse_prometheus",
    "quantile_summary",
    "read_spans",
    "recording",
    "relabel_snapshot",
    "render_prometheus",
    "render_table",
    "render_traces",
    "set_recorder",
]

"""Unit tests for the telemetry layer (registry, recorder, trace, prom).

The load-bearing guarantees:

- the :class:`NullRecorder` default makes every instrumentation site a
  no-op (one attribute read), and
- enabling telemetry never changes what a run computes — digests with the
  recorder on and off are byte-identical on both engines.
"""

import io
import json
import re

import pytest

from repro import telemetry as tele
from repro.telemetry.recorder import (
    NullRecorder,
    TelemetryRecorder,
    get_recorder,
    set_recorder,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    SCHEMA,
    MetricsRegistry,
    label_key,
    merge_snapshots,
    parse_label_key,
    relabel_snapshot,
)


class TestLabelKey:
    def test_empty(self):
        assert label_key({}) == ""

    def test_sorted_by_name(self):
        assert label_key({"b": "y", "a": "x"}) == 'a="x",b="y"'

    def test_values_stringified(self):
        assert label_key({"n": 16}) == 'n="16"'


class TestParseLabelKey:
    def test_inverts_label_key(self):
        labels = {"policy": "edf", "shard": "3"}
        assert parse_label_key(label_key(labels)) == labels

    def test_empty(self):
        assert parse_label_key("") == {}

    @pytest.mark.parametrize("bad", ["a=x", 'a="x', '="x"', "a", 'a="x",b'])
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_label_key(bad)


class TestRelabelSnapshot:
    @staticmethod
    def _snap():
        reg = MetricsRegistry()
        reg.count("repro_rounds_total", 5)
        reg.count("repro_drops_total", 2, phase="drop")
        reg.gauge("repro_pending_jobs", 7)
        reg.observe("sizes", 3)
        return reg.snapshot()

    def test_every_series_gains_the_extra_labels(self):
        out = relabel_snapshot(self._snap(), worker=1, shard=1)
        assert out["counters"]["repro_rounds_total"] == {
            'shard="1",worker="1"': 5
        }
        assert out["counters"]["repro_drops_total"] == {
            'phase="drop",shard="1",worker="1"': 2
        }
        assert out["gauges"]["repro_pending_jobs"] == {
            'shard="1",worker="1"': 7
        }
        cell = out["histograms"]["sizes"]['shard="1",worker="1"']
        assert cell["count"] == 1

    def test_existing_labels_win_on_collision(self):
        reg = MetricsRegistry()
        reg.count("x_total", 1, shard="9")
        out = relabel_snapshot(reg.snapshot(), shard=0, worker=0)
        assert out["counters"]["x_total"] == {'shard="9",worker="0"': 1}

    def test_relabelled_snapshots_merge_without_collisions(self):
        merged = merge_snapshots([
            relabel_snapshot(self._snap(), worker=0, shard=0),
            relabel_snapshot(self._snap(), worker=1, shard=1),
        ])
        assert len(merged["counters"]["repro_rounds_total"]) == 2
        assert sum(merged["counters"]["repro_rounds_total"].values()) == 10


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.count("hits_total")
        reg.count("hits_total", 2)
        reg.count("hits_total", policy="edf")
        snap = reg.snapshot()
        assert snap["schema"] == SCHEMA
        assert snap["counters"]["hits_total"][""] == 3
        assert snap["counters"]["hits_total"]['policy="edf"'] == 1

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            MetricsRegistry().count("hits_total", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("pending", 5)
        reg.gauge("pending", 2)
        assert reg.snapshot()["gauges"]["pending"][""] == 2

    def test_histogram_bucket_placement_is_le(self):
        reg = MetricsRegistry()
        # DEFAULT_BUCKETS starts (1, 2, 5, ...): a value equal to a bound
        # lands in that bound's bucket (Prometheus `le` semantics).
        reg.observe("sizes", 1)
        reg.observe("sizes", 2)
        reg.observe("sizes", 3)
        reg.observe("sizes", 10**9)  # +Inf bucket
        cell = reg.snapshot()["histograms"]["sizes"][""]
        assert cell["bounds"] == list(DEFAULT_BUCKETS)
        assert cell["buckets"][0] == 1  # le=1
        assert cell["buckets"][1] == 1  # le=2
        assert cell["buckets"][2] == 1  # 3 -> le=5
        assert cell["buckets"][-1] == 1  # +Inf
        assert cell["count"] == 4
        assert cell["sum"] == 6 + 10**9

    def test_clear(self):
        reg = MetricsRegistry()
        reg.count("hits_total")
        reg.clear()
        assert reg.snapshot()["counters"] == {}

    def test_snapshot_is_json_roundtrippable(self):
        reg = MetricsRegistry()
        reg.count("hits_total", policy="edf")
        reg.observe("sizes", 3)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestMergeSnapshots:
    @staticmethod
    def _snap(counter=0, gauge=0, obs=()):
        reg = MetricsRegistry()
        if counter:
            reg.count("hits_total", counter)
        if gauge:
            reg.gauge("pending", gauge)
        for value in obs:
            reg.observe("sizes", value)
        return reg.snapshot()

    def test_counters_add_gauges_max_histograms_add(self):
        merged = merge_snapshots([
            self._snap(counter=2, gauge=7, obs=(1, 3)),
            self._snap(counter=3, gauge=4, obs=(3,)),
        ])
        assert merged["counters"]["hits_total"][""] == 5
        assert merged["gauges"]["pending"][""] == 7
        cell = merged["histograms"]["sizes"][""]
        assert cell["count"] == 3
        assert cell["sum"] == 7

    def test_merge_order_independent(self):
        snaps = [self._snap(counter=1, gauge=i, obs=(i,)) for i in (3, 1, 2)]
        assert merge_snapshots(snaps) == merge_snapshots(reversed(snaps))

    def test_empty_snapshots_skipped(self):
        merged = merge_snapshots([{}, self._snap(counter=1), {}])
        assert merged["counters"]["hits_total"][""] == 1

    def test_incompatible_bounds_raise(self):
        a = self._snap(obs=(1,))
        b = self._snap(obs=(1,))
        b["histograms"]["sizes"][""]["bounds"] = [9, 99]
        with pytest.raises(ValueError, match="incompatible bucket boundaries"):
            merge_snapshots([a, b])


class TestRecorders:
    def test_default_recorder_is_null_and_disabled(self):
        rec = get_recorder()
        assert isinstance(rec, NullRecorder)
        assert not rec.enabled
        assert not rec.tracing

    def test_null_recorder_methods_are_noops(self):
        rec = NullRecorder()
        rec.count("x")
        rec.gauge("x", 1)
        rec.observe("x", 1)
        rec.emit({"kind": "round"})
        rec.close()
        assert rec.snapshot() == {}

    def test_recording_installs_and_restores(self):
        before = get_recorder()
        with tele.recording() as rec:
            assert get_recorder() is rec
            assert rec.enabled
        assert get_recorder() is before

    def test_recording_restores_on_error(self):
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with tele.recording():
                raise RuntimeError("boom")
        assert get_recorder() is before

    def test_set_recorder_none_restores_null(self):
        previous = set_recorder(TelemetryRecorder())
        try:
            assert get_recorder().enabled
        finally:
            set_recorder(previous)
        assert not get_recorder().enabled

    def test_tracing_only_with_writer(self):
        assert not TelemetryRecorder().tracing
        assert TelemetryRecorder(trace=io.StringIO()).tracing

    def test_recorder_routes_to_registry_and_writer(self):
        buf = io.StringIO()
        rec = TelemetryRecorder(trace=buf)
        rec.count("hits_total")
        rec.emit({"kind": "round", "round": 0})
        rec.close()
        assert rec.snapshot()["counters"]["hits_total"][""] == 1
        assert json.loads(buf.getvalue()) == {"kind": "round", "round": 0}


class TestTraceWriter:
    def test_emits_sorted_json_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with tele.TraceWriter(str(path)) as writer:
            writer.header(instance="demo")
            writer.emit({"b": 2, "a": 1, "kind": "round"})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema"] == tele.TRACE_SCHEMA
        assert lines[1] == '{"a": 1, "b": 2, "kind": "round"}'

    def test_stream_destination_not_closed(self):
        buf = io.StringIO()
        writer = tele.TraceWriter(buf)
        writer.emit({"kind": "summary"})
        writer.close()
        assert not buf.closed
        assert writer.records_written == 1


PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" ([0-9eE.+-]+|\+Inf)$"
)


class TestPrometheusRendering:
    @staticmethod
    def _render():
        reg = MetricsRegistry()
        reg.count("repro_drops_total", 7)
        reg.gauge("repro_pending_jobs", 3)
        reg.observe("sizes", 1, policy="edf")
        reg.observe("sizes", 4, policy="edf")
        reg.observe("sizes", 10**9, policy="edf")
        return tele.render_prometheus(reg.snapshot())

    def test_every_line_matches_the_text_format_grammar(self):
        for line in self._render().splitlines():
            assert PROM_COMMENT.match(line) or PROM_SAMPLE.match(line), line

    def test_counter_and_gauge_samples(self):
        text = self._render()
        assert "# TYPE repro_drops_total counter" in text
        assert "repro_drops_total 7" in text.splitlines()
        assert "# TYPE repro_pending_jobs gauge" in text
        assert "repro_pending_jobs 3" in text.splitlines()

    def test_histogram_expands_to_cumulative_buckets_sum_count(self):
        lines = self._render().splitlines()
        buckets = [l for l in lines if l.startswith("sizes_bucket{")]
        # one sample per bound plus the +Inf bucket, all carrying both labels
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1
        assert all('policy="edf"' in l and 'le="' in l for l in buckets)
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1].startswith('sizes_bucket{policy="edf",le="+Inf"}')
        assert counts[-1] == 3
        assert 'sizes_sum{policy="edf"}' in "\n".join(lines)
        assert 'sizes_count{policy="edf"} 3' in lines

    def test_help_lines_cover_known_metrics(self):
        text = self._render()
        assert "# HELP repro_drops_total Jobs dropped at their deadline." in text

    def test_empty_snapshot_renders_empty(self):
        assert tele.render_prometheus(MetricsRegistry().snapshot()) == ""


class TestQuantiles:
    def test_exact_quantile_nearest_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        assert tele.exact_quantile(samples, 0.50) == 0.2
        assert tele.exact_quantile(samples, 1.00) == 0.4
        assert tele.exact_quantile([7.0], 0.99) == 7.0

    def test_exact_quantile_empty_and_bad_q(self):
        assert tele.exact_quantile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            tele.exact_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            tele.exact_quantile([1.0], 1.5)

    def test_quantile_summary_keys_and_scale(self):
        summary = tele.quantile_summary([0.001, 0.002, 0.003], scale=1e3)
        assert sorted(summary) == ["p50", "p95", "p99"]
        assert summary["p50"] == 2.0
        assert summary["p99"] == 3.0

    def test_histogram_quantile_interpolates(self):
        reg = MetricsRegistry()
        for value in (0.5, 1.5, 1.5, 4.0):  # DEFAULT_BUCKETS: 1, 2, 5, ...
            reg.observe("sizes", value)
        cell = reg.snapshot()["histograms"]["sizes"][""]
        assert tele.histogram_quantile(cell, 0.25) <= 1.0
        assert 1.0 <= tele.histogram_quantile(cell, 0.5) <= 2.0
        assert 2.0 <= tele.histogram_quantile(cell, 0.99) <= 5.0

    def test_histogram_quantile_empty_cell(self):
        cell = {"bounds": [1, 2], "buckets": [0, 0, 0], "sum": 0.0, "count": 0}
        assert tele.histogram_quantile(cell, 0.95) == 0.0


class TestParsePrometheus:
    @staticmethod
    def _full_snapshot():
        reg = MetricsRegistry()
        reg.count("repro_serve_ticks_total", 12)
        reg.count("repro_serve_frames_total", 3, kind="submit")
        reg.gauge("repro_serve_pending_jobs", 5)
        reg.observe("repro_serve_round_seconds", 0.002)
        reg.observe("repro_serve_round_seconds", 0.3)
        reg.observe("repro_serve_admission_seconds", 0.001, )
        return reg.snapshot()

    def test_round_trips_render_output_exactly(self):
        snap = self._full_snapshot()
        assert tele.parse_prometheus(tele.render_prometheus(snap)) == snap

    def test_round_trips_relabelled_worker_snapshots(self):
        snap = relabel_snapshot(self._full_snapshot(), worker=0, shard=0)
        assert tele.parse_prometheus(tele.render_prometheus(snap)) == snap

    def test_untyped_families_degrade_to_gauges(self):
        snap = tele.parse_prometheus('foreign_metric{a="b"} 4\n')
        assert snap["gauges"]["foreign_metric"] == {'a="b"': 4}

    def test_unparsable_sample_raises(self):
        with pytest.raises(ValueError, match="unparsable sample line"):
            tele.parse_prometheus("!!! not a sample\n")


class TestObservabilityMetricFamilies:
    """Every metric family the observability PR added renders with a HELP
    line and grammar-clean samples (the prom-grammar satellite)."""

    NEW_FAMILIES = (
        "repro_serve_admission_seconds",
        "repro_serve_worker_respawns_total",
        "repro_serve_worker_commits_total",
        "repro_serve_worker_scrape_failures_total",
        "repro_serve_subscribers_dropped_total",
        "repro_serve_spans_total",
    )

    @staticmethod
    def _render_all():
        from repro.telemetry.prom import HELP

        reg = MetricsRegistry()
        for name in TestObservabilityMetricFamilies.NEW_FAMILIES:
            assert name in HELP, f"{name} has no HELP text"
            if name.endswith("_seconds"):
                reg.observe(name, 0.001, shard="0")
            else:
                reg.count(name, 1, shard="0")
        return tele.render_prometheus(reg.snapshot())

    def test_every_new_family_has_help_and_type(self):
        text = self._render_all()
        for name in self.NEW_FAMILIES:
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text

    def test_every_line_matches_the_text_format_grammar(self):
        for line in self._render_all().splitlines():
            assert PROM_COMMENT.match(line) or PROM_SAMPLE.match(line), line

    def test_admission_histogram_uses_pinned_buckets(self):
        from repro.telemetry.registry import BUCKETS

        reg = MetricsRegistry()
        reg.observe("repro_serve_admission_seconds", 0.001)
        cell = reg.snapshot()["histograms"]["repro_serve_admission_seconds"][""]
        assert cell["bounds"] == list(BUCKETS["repro_serve_admission_seconds"])


class TestTelemetryNeverChangesResults:
    """The contract the whole layer hangs on: observing a run is free of
    side effects — digests match with the recorder on and off, on both
    engines, including with a live trace writer."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_digests_match_with_and_without_telemetry(self, incremental):
        from repro.experiments.perf import (
            CASES,
            build_instance,
            result_digest,
            run_case,
        )

        case = CASES[0]
        engine = "incremental" if incremental else "reference"
        instance = build_instance(case)
        plain = result_digest(
            run_case(case, engine, record_events=True, instance=instance)
        )
        with tele.recording(TelemetryRecorder(trace=io.StringIO())) as rec:
            instrumented = result_digest(
                run_case(case, engine, record_events=True, instance=instance)
            )
        assert instrumented == plain
        # and the run actually was observed
        snap = rec.snapshot()
        assert snap["counters"]["repro_rounds_total"][""] > 0

    def test_trace_records_are_deterministic(self):
        from repro.experiments.perf import CASES, build_instance, run_case

        case = CASES[0]
        instance = build_instance(case)
        texts = []
        for _ in range(2):
            buf = io.StringIO()
            with tele.recording(TelemetryRecorder(trace=buf)):
                run_case(case, record_events=False, instance=instance)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        kinds = [json.loads(l)["kind"] for l in texts[0].splitlines()]
        assert kinds[0] == "header"
        assert kinds[-1] == "summary"
        assert kinds.count("round") > 0

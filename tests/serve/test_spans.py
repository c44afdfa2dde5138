"""Request-scoped span tracing (``repro-trace-v2``).

Three contracts:

- **Golden schema**: a scripted protocol session produces a pinned list
  of normalized spans — byte-for-byte deterministic once ``wall_ms`` is
  stripped — so any change to the v2 schema is a conscious one.
- **Completeness**: every accepted submit's trace closes — admit votes
  for each voting shard, a commit, and one execute/drop per job.
- **Digest equality**: tracing is pure observation.  The same workload
  through a server with spans on and off yields identical component
  digests on both engines.
"""

import asyncio

from repro.serve.loadgen import _replay
from repro.serve.server import SchedulingServer, ServeConfig
from repro.serve.protocol import decode_frame, encode_frame
from repro.telemetry.spans import (
    SPAN_NAMES,
    SPAN_SCHEMA,
    build_traces,
    normalize_span,
    read_spans,
)
from repro.workloads import poisson_workload


def scripted_session(tmp_path, frames, **config_kw):
    """Run ``frames`` through a spans-enabled server; returns the replies
    and the recorded ``(header, spans)``."""
    spans_path = tmp_path / "spans.jsonl"

    async def runner():
        defaults = dict(
            n=8, delta=1, policy="edf", metrics_port=None,
            spans=str(spans_path),
        )
        defaults.update(config_kw)
        server = SchedulingServer(ServeConfig(**defaults))
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        replies = []
        try:
            for frame in frames:
                writer.write(encode_frame(frame))
                await writer.drain()
                replies.append(decode_frame(await reader.readline()))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await server.stop()
        return replies

    replies = asyncio.run(runner())
    return replies, read_spans(spans_path)


class TestGoldenSpanSchema:
    FRAMES = [
        {"type": "submit", "jobs": [
            {"color": "a", "delay_bound": 1, "uid": 1},
            {"color": "b", "delay_bound": 1, "uid": 2},
        ]},
        {"type": "submit", "jobs": [  # duplicate uid -> reject
            {"color": "c", "delay_bound": 1, "uid": 1},
        ]},
        {"type": "tick"},
    ]

    def run(self, tmp_path):
        return scripted_session(
            tmp_path, self.FRAMES, journal=str(tmp_path / "j.jsonl")
        )

    def test_header_pins_the_schema(self, tmp_path):
        _, (header, _) = self.run(tmp_path)
        assert header["schema"] == SPAN_SCHEMA == "repro-trace-v2"
        assert header["shards"] == 1

    def test_normalized_spans_are_pinned(self, tmp_path):
        replies, (_, spans) = self.run(tmp_path)
        assert [r["type"] for r in replies] == ["accept", "reject", "result"]
        root = "t000001/submit"
        assert [normalize_span(s) for s in spans] == [
            {"kind": "span", "trace": "t000001", "id": "t000001/admit/0",
             "name": "admit", "parent": root, "shard": 0,
             "attrs": {"jobs": 2, "verdict": "ok"}},
            {"kind": "span", "trace": "t000001", "id": "t000001/wal.intent",
             "name": "wal.intent", "parent": root, "seq": 1},
            {"kind": "span", "trace": "t000001", "id": "t000001/wal.commit",
             "name": "wal.commit", "parent": root, "seq": 1},
            {"kind": "span", "trace": "t000001", "id": "t000001/commit",
             "name": "commit", "parent": root, "round": 0, "seq": 1,
             "attrs": {"jobs": 2}},
            {"kind": "span", "trace": "t000001", "id": root,
             "name": "submit", "round": 0, "seq": 1,
             "attrs": {"jobs": 2, "outcome": "accept"}},
            {"kind": "span", "trace": "t000002", "id": "t000002/reject",
             "name": "reject", "parent": "t000002/submit",
             "attrs": {"index": 0, "reason": "duplicate_uid"}},
            {"kind": "span", "trace": "t000002", "id": "t000002/submit",
             "name": "submit", "round": 0, "seq": 2,
             "attrs": {"jobs": 1, "outcome": "reject"}},
            {"kind": "span", "trace": "t000001", "id": "t000001/execute/1",
             "name": "execute", "parent": root, "round": 0, "shard": 0,
             "attrs": {"uid": 1}},
            {"kind": "span", "trace": "t000001", "id": "t000001/execute/2",
             "name": "execute", "parent": root, "round": 0, "shard": 0,
             "attrs": {"uid": 2}},
        ]

    def test_two_runs_differ_only_in_wall_ms(self, tmp_path):
        _, (_, first) = self.run(tmp_path)
        _, (_, second) = self.run(tmp_path)
        assert [normalize_span(s) for s in first] == [
            normalize_span(s) for s in second
        ]

    def test_every_span_name_is_canonical(self, tmp_path):
        _, (_, spans) = self.run(tmp_path)
        assert {s["name"] for s in spans} <= set(SPAN_NAMES)


class TestTraceCompleteness:
    def run_workload(self, tmp_path, **config_kw):
        spans_path = tmp_path / "spans.jsonl"
        instance = poisson_workload(delta=4, seed=3, horizon=24)

        async def runner():
            defaults = dict(
                n=16, delta=4, policy="dlru-edf", shards=2,
                metrics_port=None, spans=str(spans_path),
            )
            defaults.update(config_kw)
            server = SchedulingServer(ServeConfig(**defaults))
            await server.start()
            try:
                return await _replay(
                    "127.0.0.1", server.port, instance,
                    verify=True,
                )
            finally:
                await server.stop()

        report = asyncio.run(runner())
        assert report.digests_match is True
        return read_spans(spans_path)

    def test_every_accepted_trace_closes(self, tmp_path):
        _, spans = self.run_workload(tmp_path)
        traces = build_traces(spans)
        assert traces, "the replay produced no traces"
        for trace_id, entry in traces.items():
            root = entry["root"]
            assert root is not None, f"{trace_id} has no root span"
            assert root["attrs"]["outcome"] == "accept"
            kids = [
                entry["nodes"][sid]
                for sid in entry["children"].get(root["id"], [])
            ]
            by_name: dict[str, list] = {}
            for kid in kids:
                by_name.setdefault(kid["name"], []).append(kid)
            # one admit vote per shard that received jobs, >= 1 overall
            assert sum(a["attrs"]["jobs"] for a in by_name["admit"]) == \
                root["attrs"]["jobs"]
            assert len(by_name["commit"]) == 1
            # every job resolves: executes + drops == jobs submitted
            resolved = len(by_name.get("execute", ())) + len(
                by_name.get("drop", ())
            )
            assert resolved == root["attrs"]["jobs"]

    def test_workers_mode_votes_round_trip_the_trace_id(self, tmp_path):
        _, spans = self.run_workload(
            tmp_path, workers=True, journal=str(tmp_path / "j.jsonl")
        )
        traces = build_traces(spans)
        assert traces
        for trace_id, entry in traces.items():
            admits = [
                s for s in entry["nodes"].values() if s["name"] == "admit"
            ]
            assert admits
            # the admit span's trace id is the one the admission vote
            # carried, so a match proves propagation from the submit
            # through admission to the span
            assert all(s["trace"] == trace_id for s in admits)


class TestTracingNeverChangesDigests:
    def digests(self, tmp_path, engine, spans, instance):
        async def runner():
            config = ServeConfig(
                n=8, delta=2, policy="dlru-edf", shards=2, engine=engine,
                metrics_port=None,
                spans=str(tmp_path / f"{engine}-spans.jsonl") if spans
                else None,
            )
            server = SchedulingServer(config)
            await server.start()
            try:
                return await _replay(
                    "127.0.0.1", server.port, instance,
                    verify=True,
                )
            finally:
                await server.stop()

        report = asyncio.run(runner())
        assert report.digests_match is True
        return report.server_digests

    def test_spans_on_off_digest_equal_on_all_engines(self, tmp_path):
        # One shared instance: jobs carry process-global uids, so a fresh
        # generation per run would differ in uid (and EDF tie-breaking)
        # before tracing even entered the picture.
        instance = poisson_workload(delta=2, seed=1, horizon=16)
        for engine in ("reference", "incremental"):
            assert self.digests(tmp_path, engine, True, instance) == \
                self.digests(tmp_path, engine, False, instance), engine

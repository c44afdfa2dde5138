"""End-to-end serve observability: merged worker metrics and health.

The tentpole contract: in ``--workers`` mode the ``/metrics`` endpoint
is a *superset* of single-process mode — every engine-level family the
in-process session would expose shows up again, tagged with the
``worker``/``shard`` identity of the process that produced it, merged
with the frontend's own series.  A scrape must never restart a shard,
and a failed scrape degrades to last-good data plus a failure counter,
never to silently missing series.
"""

import asyncio
import json

from repro.core.job import Job
from repro.serve.server import SchedulingServer, ServeConfig
from repro.telemetry import parse_prometheus, render_prometheus
from repro.telemetry.registry import parse_label_key


def run_server(test, **config_kw):
    """Run ``await test(server)`` against a fresh started server."""
    async def runner():
        defaults = dict(n=8, delta=1, policy="edf", metrics_port=None)
        defaults.update(config_kw)
        server = SchedulingServer(ServeConfig(**defaults))
        await server.start()
        try:
            return await test(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


def drive(server, rounds=4):
    """Push a small multi-shard workload through the live session."""
    jobs = [
        Job(color=f"c{i}", arrival=r, delay_bound=3)
        for r in range(3)
        for i in range(6)
    ]
    server.session.submit(jobs)
    server._tick_rounds(rounds)


def family_names(snapshot):
    return (
        set(snapshot["counters"])
        | set(snapshot["gauges"])
        | set(snapshot["histograms"])
    )


class TestMergedWorkerMetrics:
    def test_worker_series_carry_worker_and_shard_labels(self, tmp_path):
        async def test(server):
            drive(server)
            snap = server.merged_snapshot()
            rounds = snap["counters"]["repro_rounds_total"]
            workers_seen = {
                parse_label_key(key).get("worker") for key in rounds
            }
            assert workers_seen == {"0", "1"}
            for key in rounds:
                labels = parse_label_key(key)
                assert labels["shard"] == labels["worker"]
            # frontend series survive the merge alongside worker series
            assert snap["counters"]["repro_serve_ticks_total"][""] == 4
            # per-worker round latency flows too (the `repro top` column)
            tick_keys = snap["histograms"]["repro_serve_round_seconds"]
            assert "" in tick_keys  # the frontend's own cell
            assert any('worker="0"' in key for key in tick_keys)

        run_server(
            test, shards=2, workers=True,
            journal=str(tmp_path / "j.jsonl"),
        )

    def test_workers_mode_families_superset_of_single_process(self, tmp_path):
        def families(**kw):
            async def test(server):
                drive(server)
                return family_names(server.merged_snapshot())

            return run_server(test, shards=2, **kw)

        single = families()
        workers = families(workers=True, journal=str(tmp_path / "j.jsonl"))
        assert single <= workers

    def test_merged_snapshot_survives_the_prom_round_trip(self, tmp_path):
        async def test(server):
            drive(server)
            snap = server.merged_snapshot()
            assert parse_prometheus(render_prometheus(snap)) == snap

        run_server(
            test, shards=2, workers=True,
            journal=str(tmp_path / "j.jsonl"),
        )


class TestScrapeFailureDegradation:
    def test_failed_scrape_keeps_last_good_and_counts(self, tmp_path):
        async def test(server):
            drive(server)
            good = server.merged_snapshot()
            assert any(
                'worker="0"' in key
                for key in good["counters"]["repro_rounds_total"]
            )

            def broken_scrape(budget=None):
                return {}, list(range(server.session.num_shards))

            server.session.metrics_snapshots = broken_scrape
            degraded = server.merged_snapshot()
            # last-good worker series are still served...
            assert (
                degraded["counters"]["repro_rounds_total"]
                == good["counters"]["repro_rounds_total"]
            )
            # ...and the failure is visible as a counter, per shard.
            failures = degraded["counters"][
                "repro_serve_worker_scrape_failures_total"
            ]
            assert failures == {'shard="0"': 1, 'shard="1"': 1}

        run_server(
            test, shards=2, workers=True,
            journal=str(tmp_path / "j.jsonl"),
        )

    def test_scrape_never_respawns_a_worker(self, tmp_path):
        async def test(server):
            drive(server)
            session = server.session
            attempts = [wk.attempt for wk in session._workers]
            for _ in range(3):
                server.merged_snapshot()
            assert [wk.attempt for wk in session._workers] == attempts

        run_server(
            test, shards=2, workers=True,
            journal=str(tmp_path / "j.jsonl"),
        )


class TestWorkerHealth:
    def test_worker_health_shape(self, tmp_path):
        async def test(server):
            drive(server)
            health = server.session.worker_health()
            assert [h["shard"] for h in health] == [0, 1]
            for entry in health:
                assert sorted(entry) == [
                    "alive", "pid", "replay_lag", "replayed_rounds",
                    "respawns", "shard",
                ]
                assert entry["alive"] is True
                assert entry["respawns"] == 0
                assert entry["replayed_rounds"] == 0
                assert isinstance(entry["pid"], int)

        run_server(
            test, shards=2, workers=True,
            journal=str(tmp_path / "j.jsonl"),
        )

    def test_healthz_reports_per_worker_liveness(self, tmp_path):
        async def test(server):
            drive(server)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = data.decode().partition("\r\n\r\n")
            assert head.split()[1] == "200"
            health = json.loads(body)
            assert health["status"] == "ok"
            assert [w["shard"] for w in health["workers"]] == [0, 1]
            assert all(w["alive"] for w in health["workers"])

        run_server(
            test, shards=2, workers=True, metrics_port=0,
            journal=str(tmp_path / "j.jsonl"),
        )

    def test_single_process_healthz_has_no_workers_key(self):
        async def test(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            _, _, body = data.decode().partition("\r\n\r\n")
            assert "workers" not in json.loads(body)

        run_server(test, metrics_port=0)


class TestHttpMergedMetrics:
    def test_metrics_endpoint_serves_worker_labeled_series(self, tmp_path):
        async def test(server):
            drive(server)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = data.decode().partition("\r\n\r\n")
            assert head.split()[1] == "200"
            assert 'repro_rounds_total{shard="0",worker="0"}' in body
            assert 'repro_rounds_total{shard="1",worker="1"}' in body
            assert "repro_serve_round_seconds_bucket" in body

        run_server(
            test, shards=2, workers=True, metrics_port=0,
            journal=str(tmp_path / "j.jsonl"),
        )

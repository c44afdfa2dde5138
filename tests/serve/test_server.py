"""Integration tests for the asyncio scheduling server.

Everything runs in-process on loopback with ``asyncio.run`` (the suite
has no async test runner, and doesn't need one).  The determinism class
is the tentpole contract: a replay through the live server must be
byte-identical to the offline ``Simulator.run``, for both engines and
both paper speeds.
"""

import asyncio
import json
import os
import tempfile

import pytest

from repro.core import Simulator, result_digests
from repro.policies import make_policy
from repro.serve.loadgen import _replay
from repro.serve.protocol import decode_frame, encode_frame
from repro.serve.server import (
    SUBSCRIBER_BUFFER_LIMIT,
    SchedulingServer,
    ServeConfig,
)
from repro.workloads import poisson_workload


class Conn:
    """One client connection speaking raw frames."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def call(self, frame):
        self.writer.write(encode_frame(frame))
        await self.writer.drain()
        return await self.recv()

    async def recv(self):
        return decode_frame(await self.reader.readline())

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def with_server(test, **config_kw):
    """Run ``await test(server, conn)`` against a fresh started server."""
    async def runner():
        defaults = dict(n=8, delta=1, policy="edf", metrics_port=None)
        defaults.update(config_kw)
        server = SchedulingServer(ServeConfig(**defaults))
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        conn = Conn(reader, writer)
        try:
            return await test(server, conn)
        finally:
            await conn.close()
            await server.stop()

    return asyncio.run(runner())


def wire_job(color, bound, arrival=None, uid=None):
    job = {"color": color, "delay_bound": bound}
    if arrival is not None:
        job["arrival"] = arrival
    if uid is not None:
        job["uid"] = uid
    return job


class TestHandshake:
    def test_welcome_carries_session_parameters(self):
        async def test(server, conn):
            welcome = await conn.call({"type": "hello", "proto": "repro-serve-v1"})
            assert welcome["type"] == "welcome"
            assert welcome["proto"] == "repro-serve-v1"
            assert welcome["shards"] == 2
            assert welcome["shard_capacity"] == [4, 4]
            assert welcome["round"] == 0
            assert welcome["clock"] == "client"
            assert welcome["engine"] == "incremental"

        with_server(test, shards=2)

    def test_auto_alias_serves_as_incremental(self):
        # `repro serve --engine auto` offers the alias; the config must
        # accept it and the session must report the resolved name.
        assert ServeConfig(engine="auto").engine == "incremental"

        async def test(server, conn):
            welcome = await conn.call({"type": "hello", "proto": "repro-serve-v1"})
            assert welcome["engine"] == "incremental"

        with_server(test, engine="auto")

    def test_wrong_proto_is_fatal(self):
        async def test(server, conn):
            reply = await conn.call({"type": "hello", "proto": "frob-v9"})
            assert reply["type"] == "error"
            assert reply["code"] == "bad_proto"
            assert await conn.reader.readline() == b""  # server hung up

        with_server(test)


class TestSubmitAndTick:
    def test_accept_then_result(self):
        async def test(server, conn):
            reply = await conn.call({
                "type": "submit", "id": 1,
                "jobs": [wire_job("a", 1), wire_job("b", 1)],
            })
            assert reply["type"] == "accept"
            assert reply["count"] == 2
            result = await conn.call({"type": "tick"})
            assert result["type"] == "result"
            assert result["round"] == 0
            assert len(result["executed"]) == 2
            assert result["pending"] == 0

        with_server(test)

    def test_multi_round_tick_streams_results(self):
        async def test(server, conn):
            await conn.call({"type": "submit", "jobs": [wire_job("a", 2)]})
            conn.writer.write(encode_frame({"type": "tick", "rounds": 3}))
            await conn.writer.drain()
            rounds = [(await conn.recv())["round"] for _ in range(3)]
            assert rounds == [0, 1, 2]

        with_server(test)

    def test_stats_expose_per_shard_digests(self):
        async def test(server, conn):
            await conn.call({"type": "submit", "jobs": [wire_job("a", 1)]})
            await conn.call({"type": "tick"})
            stats = await conn.call({"type": "stats"})
            assert stats["type"] == "stats"
            assert len(stats["shards"]) == 1
            assert set(stats["shards"][0]["digests"]) == {
                "ledger", "schedule", "events", "run",
            }

        with_server(test)

    def test_bye_closes_cleanly(self):
        async def test(server, conn):
            reply = await conn.call({"type": "bye"})
            assert reply["type"] == "bye"
            assert await conn.reader.readline() == b""

        with_server(test)


class TestRejects:
    def test_stale_round(self):
        async def test(server, conn):
            await conn.call({"type": "tick"})
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("a", 1, arrival=0)],
            })
            assert reply["type"] == "reject"
            assert reply["reason"] == "stale_round"
            assert reply["index"] == 0

        with_server(test)

    def test_backpressure(self):
        async def test(server, conn):
            reply = await conn.call({
                "type": "submit",
                "jobs": [wire_job("a", 8) for _ in range(3)],
            })
            assert reply["reason"] == "backpressure"
            # The whole batch was refused; a smaller one still fits.
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("a", 8)],
            })
            assert reply["type"] == "accept"

        with_server(test, max_pending=2)

    def test_oversized_batch(self):
        async def test(server, conn):
            reply = await conn.call({
                "type": "submit",
                "jobs": [wire_job(c, 4) for c in range(5)],
            })
            assert reply["reason"] == "backpressure"

        with_server(test, max_batch=4)

    def test_duplicate_uid(self):
        async def test(server, conn):
            await conn.call({
                "type": "submit", "jobs": [wire_job("a", 2, uid=400_000)],
            })
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("b", 2, uid=400_000)],
            })
            assert reply["reason"] == "duplicate_uid"

        with_server(test)

    def test_malformed_job(self):
        async def test(server, conn):
            reply = await conn.call({
                "type": "submit", "jobs": [{"color": "a"}],
            })
            assert reply["type"] == "reject"
            assert reply["reason"] == "bad_job"

        with_server(test)

    @pytest.mark.parametrize(
        "color", [[1, 2], {"x": 1}, {"t": [[1], 2]}], ids=["list", "object", "tuple-of-list"]
    )
    @pytest.mark.parametrize("workers", [False, True], ids=["single", "workers"])
    def test_unhashable_color_is_a_bad_job(self, workers, color):
        # Such a color used to pass the decoder and then raise TypeError
        # inside admission: asyncio logged the exception, the client got
        # no reply and lost its connection.
        async def test(server, conn):
            reply = await conn.call({
                "type": "submit", "id": 5,
                "jobs": [wire_job("a", 2), wire_job(color, 2)],
            })
            assert reply["type"] == "reject"
            assert reply["reason"] == "bad_job"
            assert reply["id"] == 5
            assert "unhashable" in reply["message"]
            # Same connection, still served.
            reply = await conn.call({"type": "submit", "jobs": [wire_job("a", 2)]})
            assert reply["type"] == "accept"
            result = await conn.call({"type": "tick"})
            assert result["type"] == "result"
            assert len(result["executed"]) == 1

        if workers:
            with_server(test, shards=2, workers=True, worker_timeout=10.0)
        else:
            with_server(test)

    def test_timer_clock_rejects_ticks(self):
        async def test(server, conn):
            reply = await conn.call({"type": "tick"})
            assert reply["type"] == "reject"
            assert reply["reason"] == "timer_clock"

        with_server(test, clock="timer", round_interval=60.0)


class TestProtocolErrors:
    def test_bad_json_keeps_connection_alive(self):
        async def test(server, conn):
            conn.writer.write(b"{nope\n")
            await conn.writer.drain()
            error = await conn.recv()
            assert error["type"] == "error"
            assert error["code"] == "bad_json"
            welcome = await conn.call({"type": "hello"})
            assert welcome["type"] == "welcome"

        with_server(test)

    def test_unknown_frame_type(self):
        async def test(server, conn):
            error = await conn.call({"type": "frobnicate"})
            assert error["type"] == "error"
            assert error["code"] == "bad_frame"

        with_server(test)


class TestTimerClock:
    def test_timer_broadcasts_results_to_subscribers(self):
        async def test(server, conn):
            welcome = await conn.call({"type": "hello", "subscribe": True})
            assert welcome["clock"] == "timer"
            result = await asyncio.wait_for(conn.recv(), timeout=5)
            assert result["type"] == "result"
            # The subscription and the welcome's ``round`` (the next round
            # to tick) are set before any broadcast can run, so the first
            # result is exactly that round: none skipped, whatever the
            # timer did before the hello.
            assert result["round"] == welcome["round"]

        with_server(test, clock="timer", round_interval=0.01)


class TestHttpSidecar:
    def test_metrics_and_healthz(self):
        async def test(server, conn):
            await conn.call({"type": "submit", "jobs": [wire_job("a", 1)]})
            await conn.call({"type": "tick"})

            async def http_get(path):
                r, w = await asyncio.open_connection(
                    "127.0.0.1", server.metrics_port
                )
                w.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
                await w.drain()
                data = await r.read()
                w.close()
                await w.wait_closed()
                head, _, body = data.decode().partition("\r\n\r\n")
                return head.split()[1], body

            status, body = await http_get("/metrics")
            assert status == "200"
            assert "repro_serve_ticks_total 1" in body
            assert "repro_serve_round_seconds_bucket" in body
            assert "repro_rounds_total 1" in body  # engine metrics flow too

            status, body = await http_get("/healthz")
            assert status == "200"
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["round"] == 1

            status, _ = await http_get("/nope")
            assert status == "404"

        with_server(test, metrics_port=0)


class TestServerDeterminism:
    """The tentpole contract: live replay == offline run, bit for bit."""

    @pytest.mark.parametrize("engine", ["incremental", "reference"])
    @pytest.mark.parametrize("speed", [1, 2])
    def test_single_shard_matches_offline_simulator_run(self, engine, speed):
        incremental = engine != "reference"
        instance = poisson_workload(delta=4, seed=23, horizon=80)
        offline = Simulator(
            instance,
            make_policy("dlru-edf", 4),
            n=8,
            speed=speed,
            incremental=incremental,
        ).run()

        async def test(server, conn):
            await conn.close()
            return await _replay(
                "127.0.0.1", server.port, instance,
                verify=True,
            )

        report = with_server(
            test,
            n=8, delta=4, policy="dlru-edf", shards=1, speed=speed,
            engine=engine,
        )
        assert report.digests_match is True
        assert report.server_digests[0] == result_digests(offline)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_replay_verifies_offline(self, shards):
        instance = poisson_workload(delta=4, seed=31, horizon=80)

        async def test(server, conn):
            await conn.close()
            return await _replay(
                "127.0.0.1", server.port, instance,
                verify=True,
            )

        report = with_server(
            test, n=16, delta=4, policy="dlru-edf", shards=shards,
        )
        assert report.digests_match is True
        assert len(report.server_digests) == shards
        assert report.jobs == instance.sequence.num_jobs

    def test_two_identical_servers_agree(self):
        instance = poisson_workload(delta=2, seed=47, horizon=64)

        def once():
            async def test(server, conn):
                await conn.close()
                return await _replay(
                    "127.0.0.1", server.port, instance,
                    verify=False,
                )

            return with_server(
                test, n=8, delta=2, policy="edf", shards=2,
            ).server_digests

        assert once() == once()


class TestOperationalSurface:
    def test_port_file_and_journal(self, tmp_path):
        port_file = tmp_path / "ports.json"
        journal = tmp_path / "journal.jsonl"

        async def test(server, conn):
            ports = json.loads(port_file.read_text())
            assert ports["port"] == server.port
            assert ports["metrics_port"] == server.metrics_port
            await conn.call({"type": "submit", "jobs": [wire_job("a", 1)]})
            await conn.call({"type": "tick"})

        with_server(
            test,
            metrics_port=0,
            port_file=str(port_file),
            journal=str(journal),
        )
        kinds = [
            json.loads(line)["kind"]
            for line in journal.read_text().splitlines()
        ]
        assert kinds[0] == "header"
        assert "submit" in kinds
        assert "round" in kinds
        assert kinds[-1] == "shutdown"


class TestStatsWireShape:
    def test_stats_before_first_tick_pins_the_frame(self):
        """Regression: ``round`` is the completed-round count (>= 0); it
        used to be derived as next-1 and read -1 on a fresh session."""
        async def test(server, conn):
            stats = await conn.call({"type": "stats"})
            assert stats["round"] == 0
            assert sorted(stats) == [
                "closed", "jobs", "latency", "pending", "round", "shards",
                "type",
            ]
            assert sorted(stats["latency"]) == ["admission_ms", "tick_ms"]
            assert sorted(stats["latency"]["tick_ms"]) == ["p50", "p95", "p99"]
            for shard_stats in stats["shards"]:
                assert shard_stats["round"] == 0
                assert sorted(shard_stats) == [
                    "digests", "jobs", "ledger", "n", "pending",
                    "round", "shard",
                ]
            await conn.call({"type": "submit", "jobs": [wire_job("a", 1)]})
            await conn.call({"type": "tick"})
            stats = await conn.call({"type": "stats"})
            assert stats["round"] == 1
            assert all(s["round"] == 1 for s in stats["shards"])

        with_server(test, shards=2)


class TestStopClosesClients:
    def test_idle_client_gets_eof_on_stop(self):
        """``stop()`` must hang up parked clients, not strand their
        handler coroutines in ``readline()`` until loop teardown."""
        async def test(server, conn):
            welcome = await conn.call({"type": "hello"})
            assert welcome["type"] == "welcome"
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                await server.stop()
                assert await asyncio.wait_for(conn.reader.readline(), 5) == b""
                assert await asyncio.wait_for(reader2.readline(), 5) == b""
            finally:
                writer2.close()
                try:
                    await writer2.wait_closed()
                except (ConnectionError, OSError):
                    pass

        with_server(test)


class _StubTransport:
    def __init__(self, buffered):
        self.buffered = buffered

    def get_write_buffer_size(self):
        return self.buffered


class _StubWriter:
    """Just enough StreamWriter surface for ``_broadcast``."""

    def __init__(self, buffered):
        self.transport = _StubTransport(buffered)
        self.closed = False
        self.payloads = []

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def write(self, data):
        self.payloads.append(data)


class TestSubscriberBackpressure:
    def test_broadcast_drops_subscribers_over_the_buffer_limit(self):
        async def test(server, conn):
            slow = _StubWriter(buffered=SUBSCRIBER_BUFFER_LIMIT + 1)
            fast = _StubWriter(buffered=0)
            server._subscribers = [slow, fast]
            server._broadcast({"type": "result", "round": 0})
            assert slow.closed and not slow.payloads
            assert not fast.closed and len(fast.payloads) == 1
            assert server._subscribers == [fast]
            counters = server.telemetry.snapshot()["counters"]
            assert counters["repro_serve_subscribers_dropped_total"][""] == 1
            # A second broadcast is a no-op for the dropped writer.
            server._broadcast({"type": "result", "round": 1})
            assert len(fast.payloads) == 2
            counters = server.telemetry.snapshot()["counters"]
            assert counters["repro_serve_subscribers_dropped_total"][""] == 1
            server._subscribers = []

        with_server(test)


class TestHttpHeaderCap:
    def test_oversized_header_section_gets_431(self):
        async def test(server, conn):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            try:
                writer.write(b"GET /metrics HTTP/1.1\r\n")
                filler = b"X-Filler: " + b"a" * 1000 + b"\r\n"
                for _ in range(20):  # ~20 KB > MAX_HEADER_BYTES
                    writer.write(filler)
                await writer.drain()
                status = await reader.readline()
                assert b"431" in status
                body = await reader.read()
                assert b"header section too large" in body
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        with_server(test, metrics_port=0)

    def test_too_many_header_lines_gets_431(self):
        async def test(server, conn):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            try:
                writer.write(b"GET /healthz HTTP/1.1\r\n")
                for i in range(150):  # > MAX_HEADER_LINES
                    writer.write(b"X-%d: 1\r\n" % i)
                await writer.drain()
                status = await reader.readline()
                assert b"431" in status
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        with_server(test, metrics_port=0)


class TestWorkersMode:
    """The server in front of WorkerShardedSession: same protocol, same
    digests, plus the write-ahead journal discipline on disk."""

    def test_workers_replay_verifies_offline(self, tmp_path):
        instance = poisson_workload(delta=4, seed=31, horizon=60)
        journal = tmp_path / "journal.jsonl"

        async def test(server, conn):
            await conn.close()
            return await _replay(
                "127.0.0.1", server.port, instance,
                verify=True,
            )

        report = with_server(
            test,
            n=16, delta=4, policy="dlru-edf", shards=2,
            workers=True, worker_timeout=10.0, journal=str(journal),
        )
        assert report.digests_match is True
        assert len(report.server_digests) == 2

        records = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "header"
        assert kinds[-1] == "shutdown"
        # WAL ordering: every submit intent is followed (eventually) by
        # its seq's commit marker, and the intent comes first.
        intents = [r["seq"] for r in records if r["kind"] == "submit"]
        markers = [r["seq"] for r in records if r["kind"] == "commit"]
        assert intents == markers == sorted(intents)
        for seq in intents:
            i = next(
                n for n, r in enumerate(records)
                if r["kind"] == "submit" and r["seq"] == seq
            )
            m = next(
                n for n, r in enumerate(records)
                if r["kind"] == "commit" and r["seq"] == seq
            )
            assert i < m

    def test_workers_need_no_explicit_journal(self):
        async def test(server, conn):
            assert server.config.journal  # auto-created temp path
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("a", 1)],
            })
            assert reply["type"] == "accept"
            result = await conn.call({"type": "tick"})
            assert result["executed"]
            return server.config.journal

        journal = with_server(test, workers=True, worker_timeout=10.0)
        # The server made this journal, so stopping deletes it.
        assert not os.path.exists(journal)

    def test_failed_start_removes_its_temp_journal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # dlru-edf rejects the capacity of 2 each of 4 shards would get.
        config = ServeConfig(
            n=8, delta=1, policy="dlru-edf", shards=4, workers=True,
            metrics_port=None,
        )
        with pytest.raises(ValueError, match="shard 0 got capacity 2"):
            SchedulingServer(config)
        assert list(tmp_path.glob("repro-serve-journal-*")) == []
        assert config.journal is None  # the caller's config is untouched

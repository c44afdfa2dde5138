"""Connection-level resilience: loadgen connect retries, idle-read timeout.

Both features are deterministic by design — the retry ladder has no
jitter, and the idle timeout emits a structured ``idle_timeout`` error
frame before closing — so the tests assert exact delays and exact wire
frames, not "eventually works".
"""

import asyncio

import pytest

from repro.serve.loadgen import LoadgenError, _connect_with_retry

from tests.serve.test_server import wire_job, with_server


class TestConnectRetry:
    def test_retries_until_success(self, monkeypatch):
        calls = {"n": 0}

        async def flaky(host, port):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionRefusedError("not yet")
            return "R", "W"

        sleeps = []

        async def fake_sleep(delay):
            sleeps.append(delay)

        monkeypatch.setattr(asyncio, "open_connection", flaky)
        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        result = asyncio.run(_connect_with_retry("h", 1, attempts=8))
        assert result == ("R", "W")
        assert calls["n"] == 3
        # Deterministic exponential ladder, no jitter.
        assert sleeps == [0.05, 0.1]

    def test_backoff_ladder_is_capped(self, monkeypatch):
        async def always_down(host, port):
            raise ConnectionRefusedError("down")

        sleeps = []

        async def fake_sleep(delay):
            sleeps.append(delay)

        monkeypatch.setattr(asyncio, "open_connection", always_down)
        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        with pytest.raises(LoadgenError) as exc:
            asyncio.run(_connect_with_retry("h", 1, attempts=8))
        assert "after 8 attempts" in str(exc.value)
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_single_attempt_fails_fast(self, monkeypatch):
        async def down(host, port):
            raise ConnectionRefusedError("down")

        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "open_connection", down)
        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        with pytest.raises(LoadgenError):
            asyncio.run(_connect_with_retry("h", 1, attempts=1))
        assert slept == []


class TestIdleTimeout:
    def test_idle_connection_gets_error_frame_then_close(self):
        async def test(server, conn):
            # Send nothing: the server must time the read out, answer with
            # a structured error, and hang up.
            reply = await asyncio.wait_for(conn.recv(), timeout=5)
            assert reply["type"] == "error"
            assert reply["code"] == "idle_timeout"
            assert await conn.reader.readline() == b""

        with_server(test, idle_timeout=0.2)

    def test_active_connection_survives(self):
        async def test(server, conn):
            for _ in range(4):
                await asyncio.sleep(0.1)
                reply = await conn.call({
                    "type": "submit", "jobs": [wire_job("a", 2)],
                })
                assert reply["type"] == "accept"

        with_server(test, idle_timeout=0.3)

    def test_zero_disables_the_timeout(self):
        async def test(server, conn):
            await asyncio.sleep(0.3)
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("a", 2)],
            })
            assert reply["type"] == "accept"

        with_server(test, idle_timeout=0)

    def test_disconnects_are_counted(self):
        async def test(server, conn):
            await asyncio.wait_for(conn.recv(), timeout=5)
            snap = server.telemetry.registry.snapshot()
            assert snap["counters"]["repro_serve_idle_disconnects_total"][""] == 1

        with_server(test, idle_timeout=0.2)

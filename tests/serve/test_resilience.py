"""Resilience: loadgen connect retries, idle-read timeout, fail-stop journal.

All three are deterministic by design — the retry ladder has no
jitter, the idle timeout emits a structured ``idle_timeout`` error
frame before closing, and a journal record the disk refuses is answered
with a ``journal_failed`` error frame before the server stops — so the
tests assert exact delays and exact wire frames, not "eventually works".
"""

import asyncio
import errno
import json

import pytest

from repro.serve.journal import read_records
from repro.serve.loadgen import LoadgenError, _connect_with_retry
from repro.serve.protocol import decode_frame, encode_frame
from repro.serve.server import JournalError, ServeConfig, _serve_async
from repro.utils.jsonl import JsonlJournal

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


def refuse(monkeypatch, owner, kind):
    """Make ``owner``'s journal appends refuse every ``kind`` record, as a
    full disk would (``owner`` is a journal or the journal class)."""
    append = owner.append

    def append_or_fail(*args, sync=True):
        if args[-1]["kind"] == kind:
            raise OSError(errno.ENOSPC, "No space left on device")
        append(*args, sync=sync)

    monkeypatch.setattr(owner, "append", append_or_fail)


class TestJournalFailStop:
    @pytest.mark.parametrize("workers", [False, True], ids=["in-process", "workers"])
    @pytest.mark.parametrize("kind", ["submit", "commit"])
    def test_refused_submit_record_commits_nothing_and_stops(
        self, tmp_path, monkeypatch, kind, workers
    ):
        path = tmp_path / "j.jsonl"

        async def test(server, conn):
            accepted = await conn.call({"type": "submit", "jobs": [wire_job("a", 2, uid=1)]})
            assert accepted["type"] == "accept"
            refuse(monkeypatch, server.journal, kind)
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("a", 2, uid=2), wire_job("b", 3, uid=3)],
            })
            assert reply["type"] == "error"
            assert reply["code"] == "journal_failed"
            assert f"cannot append a {kind} record" in reply["message"]
            assert await conn.reader.readline() == b""  # server hung up
            # None of the batch reached a shard, and the server stops on
            # its own.
            stats = server.session.stats()
            assert stats["jobs"] == 1 and stats["pending"] == 1
            await asyncio.wait_for(server.serve_until_stopped(), 10)
            assert isinstance(server.failure, JournalError)

        with_server(test, shards=2, workers=workers, journal=str(path))
        records = read_records(path)
        # The refused record and everything after it (the shutdown
        # record too) never reached the journal.
        expected = ["header", "submit", "commit"] + (["submit"] if kind == "commit" else [])
        assert [r["kind"] for r in records] == expected

    def test_refused_tenant_record_installs_nothing(self, tmp_path, monkeypatch):
        async def test(server, conn):
            refuse(monkeypatch, server.journal, "tenant")
            reply = await conn.call({"type": "tenant_register", "tenant": {
                "name": "t", "colors": ["a"], "rate": 1, "delay_bound": 3,
            }})
            assert reply["code"] == "journal_failed"
            assert server.session.tenants.empty
            await asyncio.wait_for(server.serve_until_stopped(), 10)

        with_server(test, journal=str(tmp_path / "j.jsonl"))

    def test_refused_timer_round_record_stops_the_clock(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"

        async def test(server, conn):
            welcome = await conn.call({"type": "hello", "subscribe": True})
            assert welcome["type"] == "welcome"
            refuse(monkeypatch, server.journal, "round")
            frame = await asyncio.wait_for(conn.recv(), 10)
            while frame["type"] == "result":  # ticks the refusal missed
                frame = await asyncio.wait_for(conn.recv(), 10)
            assert frame["type"] == "error"
            assert frame["code"] == "journal_failed"
            assert "cannot append a round record" in frame["message"]
            stopped_at = server.session.round
            await asyncio.sleep(0.2)  # four intervals: the clock stopped itself
            assert server.session.round == stopped_at
            await asyncio.wait_for(server.serve_until_stopped(), 10)
            assert isinstance(server.failure, JournalError)

        with_server(test, clock="timer", round_interval=0.05, journal=str(path))
        kinds = [r["kind"] for r in read_records(path)]
        assert kinds[0] == "header" and set(kinds[1:]) <= {"round"}

    def test_serve_exits_with_the_failure(self, tmp_path, monkeypatch):
        # The refusal surfaces from serve_forever's coroutine, which is
        # what makes `repro serve` exit with status 1 and one line.
        refuse(monkeypatch, JsonlJournal, "submit")
        port_file = tmp_path / "ports.json"
        config = ServeConfig(
            n=8, delta=1, policy="edf", metrics_port=None,
            journal=str(tmp_path / "j.jsonl"), port_file=str(port_file),
        )

        async def runner():
            served = asyncio.get_running_loop().create_task(
                _serve_async(config, quiet=True)
            )
            while not port_file.exists():
                assert not served.done(), served.result()
                await asyncio.sleep(0.01)
            port = json.loads(port_file.read_text())["port"]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_frame({"type": "submit", "jobs": [wire_job("a", 2)]}))
            await writer.drain()
            reply = decode_frame(await reader.readline())
            writer.close()
            await writer.wait_closed()
            assert reply["code"] == "journal_failed"
            with pytest.raises(JournalError, match="cannot append a submit record"):
                await asyncio.wait_for(served, 10)

        asyncio.run(runner())

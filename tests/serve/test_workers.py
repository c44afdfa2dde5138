"""Multi-process shard workers: parity, atomic admission, failover.

Every test drives a :class:`WorkerShardedSession` side by side with an
in-process :class:`ShardedSession` *oracle* built identically — the
worker layer's whole contract is that the process boundary is
unobservable: same accepts, same rejects (reason, message, index), same
result frames, same stats, same component digests.

The failover tests write the journal with the server's exact
write-ahead discipline (intent fsynced, commit marker, round records
after the round) via :class:`Harness`, then murder workers mid-run and
assert the respawned shard is byte-identical to the never-killed
oracle.
"""

import os
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.policies import make_policy
from repro.serve.journal import (
    commit_record,
    round_record,
    submit_record,
    tenant_record,
)
from repro.serve.session import AdmissionError, ShardedSession, shard_of
from repro.serve.tenants import TenantContract
from repro.serve.workers import WorkerShardedSession
from repro.telemetry.recorder import TelemetryRecorder
from repro.utils.jsonl import JsonlJournal
from repro.workloads import tenant_flood_instance, tenant_flood_plan


def colors_for_shards(shards: int, per_shard: int = 4) -> dict[int, list[str]]:
    """``per_shard`` probe colors routed to each shard id."""
    out: dict[int, list[str]] = {sid: [] for sid in range(shards)}
    i = 0
    while any(len(v) < per_shard for v in out.values()):
        color = f"c{i}"
        sid = shard_of(color, shards)
        if len(out[sid]) < per_shard:
            out[sid].append(color)
        i += 1
    return out


class Harness:
    """A worker session + oracle driven with the server's WAL discipline."""

    def __init__(
        self,
        tmp_path,
        shards=2,
        n=8,
        delta=1,
        policy="edf",
        telemetry=None,
        **worker_kw,
    ):
        self.path = str(tmp_path / "journal.jsonl")
        self.journal = JsonlJournal(self.path, truncate=True)
        self.ws = WorkerShardedSession(
            n=n,
            delta=delta,
            policy=policy,
            journal_path=self.path,
            shards=shards,
            telemetry=telemetry,
            **worker_kw,
        )
        self.oracle = ShardedSession(
            n=n,
            delta=delta,
            policy_factory=lambda: make_policy(policy, delta),
            shards=shards,
        )
        self.seq = 0

    def register_tenant(self, contract):
        """The server's order: journal record first, then both installs."""
        self.journal.append(tenant_record(contract.to_dict()), sync=True)
        assert self.ws.register_tenant(contract) == \
            self.oracle.register_tenant(contract)

    def submit(self, jobs):
        """Both sessions, write-ahead: intent + marker before the commit.
        Both return the same admission (the same sheds with tenants
        registered), and the journal carries the kept jobs."""
        live = self.ws.validate(jobs)
        control = self.oracle.validate(jobs)
        assert live == control
        self.seq += 1
        self.journal.append(
            submit_record(self.seq, self.ws.round, live.kept), sync=True
        )
        self.journal.append(commit_record(self.seq), sync=False)
        self.ws.commit(live)
        self.oracle.commit(control)
        return live.kept

    def tick(self):
        live = self.ws.tick()
        control = self.oracle.tick()
        self.journal.append(round_record(live), sync=False)
        assert live == control
        return live

    def assert_identical(self):
        live, control = self.ws.stats(), self.oracle.stats()
        assert live == control
        assert [s["digests"] for s in live["shards"]] == [
            s["digests"] for s in control["shards"]
        ]

    def close(self):
        self.ws.close()
        self.oracle.close()
        self.journal.close()


def signal_worker(session, shard, signum):
    """Send ``signum`` to the shard's worker, at the pid ``/healthz``
    reports; after SIGKILL, wait until the worker is reported dead."""
    os.kill(session.worker_health()[shard]["pid"], signum)
    if signum == signal.SIGKILL:
        deadline = time.monotonic() + 10
        while session.worker_health()[shard]["alive"]:
            assert time.monotonic() < deadline, "killed worker still alive"
            time.sleep(0.01)


@pytest.fixture
def harness(tmp_path):
    h = Harness(tmp_path, timeout=10.0)
    yield h
    h.close()


class TestParity:
    def test_lockstep_with_in_process_session(self, harness):
        jobs = [
            Job(color=f"c{i % 7}", arrival=r, delay_bound=3)
            for r in range(4)
            for i in range(6)
        ]
        harness.submit(jobs)
        for _ in range(harness.ws.drain_horizon()):
            harness.tick()
        assert harness.ws.drain_horizon() == harness.oracle.drain_horizon()
        assert harness.ws.pending == harness.oracle.pending == 0
        harness.assert_identical()

    def test_equal_colors_of_different_types_route_by_shard_of(self, tmp_path):
        # 1 and 1.0 are one dict key but two shard_of labels: a job of
        # color 1.0 must go to shard_of(1.0)'s worker even after a job of
        # color 1, as ShardedSession and journal replay route it.
        assert (shard_of(1, 4), shard_of(1.0, 4)) == (0, 2)
        h = Harness(tmp_path, shards=4, n=8, timeout=10.0)
        try:
            h.submit([Job(color=1, arrival=0, delay_bound=3)])
            h.tick()
            h.submit([Job(color=1.0, arrival=1, delay_bound=3)])
            for _ in range(h.ws.drain_horizon() - 1):
                h.tick()
            assert h.ws.pending == h.oracle.pending == 0
            h.assert_identical()
        finally:
            h.close()

    @pytest.mark.parametrize("engine", ["reference", "incremental"])
    def test_engines_match_across_the_process_boundary(self, tmp_path, engine):
        h = Harness(
            tmp_path, n=8, delta=2, policy="dlru-edf",
            engine=engine, timeout=10.0,
        )
        h.oracle = ShardedSession(
            n=8, delta=2,
            policy_factory=lambda: make_policy("dlru-edf", 2),
            shards=2, engine=engine,
        )
        try:
            h.submit([
                Job(color=c, arrival=r, delay_bound=4)
                for r in range(3)
                for c in "abcdef"
            ])
            for _ in range(8):
                h.tick()
            h.assert_identical()
        finally:
            h.close()

    def test_constructor_error_parity_for_bad_capacity(self, tmp_path):
        # dlru-edf rejects a capacity of 2; both layers must say so the
        # same way (ValueError naming the shard), not hang or traceback.
        kwargs = dict(n=8, delta=1, shards=4)
        with pytest.raises(ValueError, match="shard 0 got capacity 2"):
            ShardedSession(
                policy_factory=lambda: make_policy("dlru-edf", 1), **kwargs
            )
        with pytest.raises(ValueError, match="shard 0 got capacity 2"):
            WorkerShardedSession(
                policy="dlru-edf",
                journal_path=str(tmp_path / "j.jsonl"),
                timeout=10.0,
                **kwargs,
            )


class TestCrossWorkerAdmission:
    """Phase-1 rejections must leave no trace on any worker."""

    def reject_both_ways(self, harness, jobs):
        with pytest.raises(AdmissionError) as live:
            harness.ws.submit(jobs)
        with pytest.raises(AdmissionError) as control:
            harness.oracle.submit(jobs)
        assert live.value.reason == control.value.reason
        assert live.value.index == control.value.index
        assert str(live.value) == str(control.value)
        return live.value

    def test_stale_round_on_second_worker_leaves_all_untouched(self, harness):
        palette = colors_for_shards(2)
        harness.submit([
            Job(color=palette[0][0], arrival=0, delay_bound=2),
            Job(color=palette[1][0], arrival=0, delay_bound=2),
        ])
        harness.tick()
        before = harness.ws.shard_digests()
        pending = harness.ws.pending
        # First job is fine and routes to shard 0; the second routes to
        # shard 1 and targets the already-consumed round 0.
        error = self.reject_both_ways(harness, [
            Job(color=palette[0][1], arrival=1, delay_bound=2),
            Job(color=palette[1][1], arrival=0, delay_bound=2),
        ])
        assert error.reason == "stale_round"
        assert error.index == 1
        assert harness.ws.shard_digests() == before
        assert harness.ws.pending == pending
        # The session still works and stays in lockstep with the oracle.
        harness.submit([Job(color=palette[0][1], arrival=1, delay_bound=2)])
        harness.tick()
        harness.assert_identical()

    def test_inconsistent_bound_against_another_shards_history(self, harness):
        palette = colors_for_shards(2)
        harness.submit([Job(color=palette[1][0], arrival=0, delay_bound=3)])
        before = harness.ws.shard_digests()
        error = self.reject_both_ways(harness, [
            Job(color=palette[0][0], arrival=0, delay_bound=2),
            Job(color=palette[1][0], arrival=0, delay_bound=5),
        ])
        assert error.reason == "inconsistent_delay_bound"
        assert error.index == 1
        assert harness.ws.shard_digests() == before

    def test_duplicate_uid_and_backpressure_parity(self, tmp_path):
        h = Harness(tmp_path, timeout=10.0, max_pending=4)
        h.oracle = ShardedSession(
            n=8, delta=1, policy_factory=lambda: make_policy("edf", 1),
            shards=2, max_pending=4,
        )
        try:
            first = Job(color="a", arrival=0, delay_bound=2)
            h.submit([first])
            error = self.reject_both_ways(
                h, [Job(color="b", arrival=0, delay_bound=2), first]
            )
            assert error.reason == "duplicate_uid"
            assert error.index == 1
            sid = shard_of("a", 2)
            flood = [
                Job(color="a", arrival=1, delay_bound=2) for _ in range(4)
            ]
            error = self.reject_both_ways(h, flood)
            assert error.reason == "backpressure"
            assert error.index is None
            assert f"shard {sid}" in str(error)
        finally:
            h.close()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_atomicity_property(self, tmp_path_factory, data):
        """Random batches that fail phase 1 on the *second* of two target
        workers leave every worker's digests unchanged (and agree with
        the oracle on the verdict)."""
        tmp = tmp_path_factory.mktemp("atomicity")
        h = Harness(tmp, timeout=10.0)
        palette = colors_for_shards(2)
        try:
            # A random valid prefix so shards carry differing state; the
            # first batch pins palette[1][0] so the bound-violation case
            # below always has registered history to contradict.
            rounds = data.draw(st.integers(min_value=1, max_value=3))
            for r in range(rounds):
                batch = [
                    Job(
                        color=data.draw(
                            st.sampled_from(palette[0] + palette[1])
                        ),
                        arrival=r,
                        delay_bound=2,
                    )
                    for _ in range(data.draw(st.integers(1, 4)))
                ]
                if r == 0:
                    batch.append(
                        Job(color=palette[1][0], arrival=0, delay_bound=2)
                    )
                h.submit(batch)
                h.tick()
            before = h.ws.shard_digests()
            # Violation on shard 1, clean job on shard 0 first in batch.
            kind = data.draw(st.sampled_from(["stale_round", "bound"]))
            good = Job(
                color=data.draw(st.sampled_from(palette[0])),
                arrival=rounds,
                delay_bound=2,
            )
            if kind == "stale_round":
                bad = Job(
                    color=data.draw(st.sampled_from(palette[1])),
                    arrival=data.draw(st.integers(0, rounds - 1)),
                    delay_bound=2,
                )
            else:
                bad = Job(
                    color=palette[1][0],  # history pinned at bound 2 above
                    arrival=rounds,
                    delay_bound=7,
                )
            self.reject_both_ways(h, [good, bad])
            assert h.ws.shard_digests() == before
            h.assert_identical()
        finally:
            h.close()


    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_tenant_plan_atomicity_property(self, tmp_path_factory, data):
        """The atomicity property with a tenant plan registered: random
        batches over metered and unmetered colors shed and reject as the
        oracle does, a rejected batch leaves every worker untouched, and
        a worker SIGKILLed between a commit and the next tick comes back
        digest-identical."""
        tmp = tmp_path_factory.mktemp("tenant-atomicity")
        h = Harness(tmp, timeout=10.0)
        palette = colors_for_shards(2)
        # Two colors of each shard are metered (burst 1, so most batches
        # shed); the other two stay unmetered and are never shed.
        metered = {0: palette[0][:2], 1: palette[1][:2]}
        free = {0: palette[0][2:], 1: palette[1][2:]}
        try:
            h.register_tenant(TenantContract(
                name="a", colors=tuple(metered[0]), rate=Fraction(1),
                delay_bound=2, burst=1,
            ))
            h.register_tenant(TenantContract(
                name="b", colors=tuple(metered[1]), rate=Fraction(1, 2),
                delay_bound=2, burst=1,
            ))
            rounds = data.draw(st.integers(min_value=1, max_value=3))
            kill_round = data.draw(st.integers(0, rounds - 1))
            victim = data.draw(st.sampled_from([0, 1]))
            pin = Job(color=free[1][0], arrival=0, delay_bound=2)
            for r in range(rounds):
                batch = [
                    Job(
                        color=data.draw(
                            st.sampled_from(palette[0] + palette[1])
                        ),
                        arrival=r,
                        delay_bound=2,
                    )
                    for _ in range(data.draw(st.integers(1, 5)))
                ]
                if r == 0:
                    batch.append(pin)
                h.submit(batch)
                if r == kill_round:
                    os.kill(
                        h.ws._workers[victim].worker.process.pid,
                        signal.SIGKILL,
                    )
                h.tick()
            assert h.ws._workers[victim].attempt == 2  # respawned once
            before = h.ws.shard_digests()
            # A metered job first (kept or shed), then an unmetered one
            # on shard 1 that breaks a rule, so the reject never depends
            # on the buckets.
            good = Job(
                color=data.draw(st.sampled_from(metered[0] + metered[1])),
                arrival=rounds,
                delay_bound=2,
            )
            kind = data.draw(
                st.sampled_from(["stale_round", "bound", "duplicate"])
            )
            if kind == "stale_round":
                bad = Job(
                    color=data.draw(st.sampled_from(free[1])),
                    arrival=data.draw(st.integers(0, rounds - 1)),
                    delay_bound=2,
                )
            elif kind == "bound":
                bad = Job(color=pin.color, arrival=rounds, delay_bound=7)
            else:
                bad = Job(
                    color=free[1][1], arrival=rounds, delay_bound=2,
                    uid=pin.uid,
                )
            self.reject_both_ways(h, [good, bad])
            assert h.ws.shard_digests() == before
            h.assert_identical()
            h.submit([good])
            for _ in range(3):
                h.tick()
            h.assert_identical()
        finally:
            h.close()


class CountingConn:
    """A parent-side pipe end that records what crosses it."""

    def __init__(self, conn):
        self._conn = conn
        #: ops sent to the worker, in order.
        self.sent: list[str] = []
        #: messages received from the worker.
        self.replies = 0

    def send(self, message):
        self._conn.send(message)
        self.sent.append(message[0])

    def recv(self):
        message = self._conn.recv()
        self.replies += 1
        return message

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestPipeProtocol:
    def test_one_blocking_round_trip_per_worker_per_round(self, tmp_path):
        """Each round a worker receives one ``commit`` when the round's
        kept jobs route to it, then one ``tick``, and sends one reply."""
        plan = tenant_flood_plan(shards=2, delta=1, rate=2, colors_per_tenant=2)
        flood = tenant_flood_instance(
            plan, horizon=16, flood_factor=4, seed=1, delta=1
        )
        h = Harness(tmp_path, n=16, timeout=10.0)
        try:
            for entry in plan["tenants"]:
                h.register_tenant(TenantContract.from_dict(entry))
            conns = []
            for wk in h.ws._workers:
                wk.worker.conn = CountingConn(wk.worker.conn)
                conns.append(wk.worker.conn)
            expected: list[list[str]] = [[], []]
            shed = 0
            for rnd in range(flood.horizon):
                batch = list(flood.sequence.request(rnd))
                kept = h.submit(batch)
                shed += len(batch) - len(kept)
                targets = {shard_of(job.color, 2) for job in kept}
                for sid in (0, 1):
                    expected[sid] += ["commit"] * (sid in targets) + ["tick"]
                h.tick()
            assert shed > 0  # the plan really metered something
            for sid, conn in enumerate(conns):
                assert conn.sent == expected[sid]
                assert conn.replies == flood.horizon
            h.assert_identical()
        finally:
            h.close()


class TestFailover:
    def test_sigkill_mid_run_resumes_digest_identical(self, harness):
        jobs = [
            Job(color=f"c{i}", arrival=r, delay_bound=3)
            for r in range(6)
            for i in range(8)
        ]
        harness.submit(jobs)
        harness.tick()
        harness.tick()
        signal_worker(harness.ws, 0, signal.SIGKILL)
        for _ in range(4):
            harness.tick()
        assert harness.ws._workers[0].attempt == 2
        harness.assert_identical()

    def test_kill_between_submits_replays_marked_batch(self, harness):
        palette = colors_for_shards(2)
        harness.submit([
            Job(color=palette[sid][i], arrival=0, delay_bound=4)
            for sid in (0, 1)
            for i in range(3)
        ])
        # The batch's marker is on disk but shard 1 may not have pushed
        # yet; killing here exercises replay-from-marker.
        signal_worker(harness.ws, 1, signal.SIGKILL)
        harness.submit([Job(color=palette[1][3], arrival=1, delay_bound=4)])
        for _ in range(6):
            harness.tick()
        harness.assert_identical()

    def test_sigkill_respawns_once_and_counts_shard_1(self, tmp_path):
        telemetry = TelemetryRecorder()
        h = Harness(tmp_path, timeout=10.0, telemetry=telemetry)
        try:
            h.submit([
                Job(color=f"c{i}", arrival=r, delay_bound=2)
                for r in range(3)
                for i in range(6)
            ])
            h.tick()
            signal_worker(h.ws, 1, signal.SIGKILL)
            for _ in range(4):
                h.tick()
            h.assert_identical()
            counters = telemetry.snapshot()["counters"]
            assert counters["repro_serve_worker_respawns_total"] == {
                'shard="1"': 1
            }
            assert [w["respawns"] for w in h.ws.worker_health()] == [0, 1]
        finally:
            h.close()

    def test_hang_fault_is_killed_and_respawned(self, tmp_path):
        h = Harness(tmp_path, timeout=1.0)
        try:
            h.submit([
                Job(color=f"c{i}", arrival=0, delay_bound=3)
                for i in range(6)
            ])
            signal_worker(h.ws, 0, signal.SIGSTOP)
            t0 = time.monotonic()
            h.tick()
            # The stopped worker was SIGKILLed at the 1 s budget and its
            # respawn answered the re-sent tick.
            assert 1.0 <= time.monotonic() - t0 < 30
            assert h.ws._workers[0].attempt == 2
            h.tick()
            h.tick()
            h.assert_identical()
        finally:
            h.close()

    def test_retry_exhaustion_poisons_the_session(self, tmp_path):
        h = Harness(tmp_path, timeout=5.0, retries=0)
        try:
            h.ws.commit(h.ws.validate([Job(color="a", arrival=0, delay_bound=2)]))
            signal_worker(h.ws, 0, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="shard 0 unavailable"):
                h.ws.tick()
            with pytest.raises(RuntimeError, match="session failed"):
                h.ws.stats()
        finally:
            h.close()

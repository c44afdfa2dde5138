"""The write-ahead session journal: record shapes, replay, crash windows.

The contract under test: a journal is a faithful WAL of the session —
an intent record is fsynced *before* its batch touches any shard, the
commit marker lands before the commit is applied, and round records are
proof the whole session completed the round.  Replay of any crash
prefix therefore reconstructs a valid session state, and a batch whose
marker made it to disk is admitted exactly once, never twice, never
half.
"""

from fractions import Fraction

import pytest

from repro.core.job import Job
from repro.policies import make_policy
from repro.serve.journal import (
    commit_record,
    read_records,
    replay_ops,
    replay_session,
    replay_shard,
    round_record,
    submit_record,
    tenant_record,
)
from repro.serve.session import SessionShard, ShardedSession
from repro.serve.tenants import TenantContract
from repro.utils.jsonl import JsonlJournal


def make_session(shards=2, n=8):
    # EDF wants an even capacity per shard, so n must split evenly.
    return ShardedSession(
        n=n,
        delta=1,
        policy_factory=lambda: make_policy("edf", 1),
        shards=shards,
    )


def session_digests(session):
    return [shard.digests() for shard in session.shards]


def drive(journal, session, batches_per_round=2, rounds=3):
    """Run a session while journaling with the server's WAL discipline."""
    seq = 0
    uid = 0
    for r in range(rounds):
        for b in range(batches_per_round):
            jobs = [
                Job(color=f"c{(b + i) % 5}", arrival=r, delay_bound=3)
                for i in range(3)
            ]
            uid += len(jobs)
            admission = session.validate(jobs)
            seq += 1
            journal.append(submit_record(seq, session.round, jobs), sync=True)
            journal.append(commit_record(seq), sync=False)
            session.commit(admission)
        journal.append(round_record(session.tick()), sync=False)


class TestRecordShapes:
    def test_submit_record_wire_shape(self):
        job = Job(color="a", arrival=2, delay_bound=3, uid=17)
        record = submit_record(5, 2, [job])
        assert record == {
            "kind": "submit",
            "seq": 5,
            "round": 2,
            "jobs": [
                {"color": "a", "arrival": 2, "delay_bound": 3, "uid": 17}
            ],
        }

    def test_commit_and_round_records(self):
        assert commit_record(5) == {"kind": "commit", "seq": 5}
        frame = {"round": 0, "executed": [1], "dropped": [], "cost": 0}
        assert round_record(frame) == {"kind": "round", **frame}


class TestReplayOps:
    def test_unmarked_intent_is_skipped(self):
        jobs = [Job(color="a", arrival=0, delay_bound=2, uid=1)]
        records = [
            {"kind": "header", "schema": "repro-serve-journal-v2"},
            submit_record(1, 0, jobs),
            commit_record(1),
            round_record({"round": 0, "executed": [1]}),
            submit_record(2, 1, jobs),  # intent, no marker: crash window
        ]
        ops = replay_ops(records)
        assert [op for op, _ in ops] == ["submit", "round"]
        (replayed,) = ops[0][1]
        assert (replayed.color, replayed.arrival, replayed.uid) == ("a", 0, 1)

    def test_marker_order_does_not_matter_to_marking(self):
        # A marker that raced ahead in the file still marks its seq:
        # marking is a set over the whole record list, application order
        # stays file order.
        jobs = [Job(color="a", arrival=0, delay_bound=2, uid=1)]
        ops = replay_ops([commit_record(1), submit_record(1, 0, jobs)])
        assert [op for op, _ in ops] == ["submit"]


class TestCrashWindows:
    """Every kill point in the WAL sequence replays to a valid state."""

    def write_prefix(self, path, stop_after):
        """The journal as a crash between WAL steps would leave it."""
        jobs = [Job(color=f"c{i}", arrival=0, delay_bound=2) for i in range(4)]
        with JsonlJournal(path, truncate=True) as journal:
            records = [
                submit_record(1, 0, jobs),
                commit_record(1),
            ]
            for record in records[:stop_after]:
                journal.append(record)
        return jobs

    def test_kill_between_intent_and_marker_drops_the_batch(self, tmp_path):
        """Regression: the client never saw ``accept``, so replay must not
        admit the batch — an intent alone is not an admission."""
        path = tmp_path / "journal.jsonl"
        self.write_prefix(str(path), stop_after=1)
        session = make_session()
        assert replay_session(read_records(path), session) == 0
        assert session.pending == 0
        assert session_digests(session) == session_digests(make_session())

    def test_kill_after_marker_admits_exactly_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        jobs = self.write_prefix(str(path), stop_after=2)
        session = make_session()
        replay_session(read_records(path), session)
        assert session.pending == len(jobs)
        oracle = make_session()
        oracle.submit(jobs)
        assert session_digests(session) == session_digests(oracle)

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_prefix(str(path), stop_after=2)
        with open(path, "a") as fh:
            fh.write('{"kind": "rou')  # crash mid-write, no newline
        records = read_records(path)
        assert [r["kind"] for r in records] == ["submit", "commit"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "commit", "seq": 1}\nnot json\n{"a": 1}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_records(path)


class TestReplayEquivalence:
    def test_replay_session_matches_the_original(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        original = make_session()
        with JsonlJournal(str(path), truncate=True) as journal:
            drive(journal, original)
        rebuilt = make_session()
        stepped = replay_session(read_records(path), rebuilt)
        assert stepped == 3
        assert rebuilt.round == original.round
        assert rebuilt.stats() == original.stats()
        assert session_digests(rebuilt) == session_digests(original)

    def test_replay_session_rebuilds_tenant_admitted_counts(self, tmp_path):
        # The journal holds only admitted jobs, so the rebuilt counters
        # count them as submitted and admitted, with nothing shed.
        path = tmp_path / "journal.jsonl"
        contract = TenantContract(
            name="t", colors=("c0", "c1"), rate=Fraction(1), delay_bound=3, burst=2,
        )
        original = make_session()
        with JsonlJournal(str(path), truncate=True) as journal:
            journal.append(tenant_record(contract.to_dict()))
            original.register_tenant(contract)
            for r in range(4):
                jobs = [Job(color=f"c{i % 3}", arrival=r, delay_bound=3) for i in range(6)]
                admission = original.validate(jobs)
                journal.append(submit_record(r + 1, original.round, admission.kept))
                journal.append(commit_record(r + 1), sync=False)
                original.commit(admission)
                journal.append(round_record(original.tick()), sync=False)
        rebuilt = make_session()
        replay_session(read_records(path), rebuilt)
        (live,) = original.tenant_stats()
        (replayed,) = rebuilt.tenant_stats()
        assert live["shed"] > 0
        assert replayed["admitted"] == replayed["submitted"] == live["admitted"]
        assert replayed["shed"] == 0
        assert [m.tokens() for m in rebuilt._meters] == [m.tokens() for m in original._meters]
        assert session_digests(rebuilt) == session_digests(original)

    def test_replay_shard_matches_replay_session_per_shard(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        original = make_session(shards=3, n=12)
        with JsonlJournal(str(path), truncate=True) as journal:
            drive(journal, original)
        records = read_records(path)
        for shard_id, live_shard in enumerate(original.shards):
            fresh = SessionShard(
                shard_id,
                live_shard.n,
                original.delta,
                make_policy("edf", original.delta),
            )
            stepped = replay_shard(records, fresh, shards=3)
            assert stepped == 3
            assert fresh.digests() == live_shard.digests()
            assert fresh.stats() == live_shard.stats()

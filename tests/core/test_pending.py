"""Unit tests for repro.core.pending."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.pending import PendingPool, PendingStore


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestPendingPool:
    def test_rejects_wrong_color(self):
        pool = PendingPool(0)
        with pytest.raises(ValueError):
            pool.add(J(1, 0, 2))

    def test_idle_transitions(self):
        pool = PendingPool(0)
        assert pool.idle
        pool.add(J(0, 0, 2))
        assert not pool.idle
        pool.pop()
        assert pool.idle

    def test_pop_earliest_deadline(self):
        pool = PendingPool(0)
        late = J(0, 4, 4)
        early = J(0, 0, 2)
        pool.add(late)
        pool.add(early)
        assert pool.pop().uid == early.uid

    def test_peek_does_not_remove(self):
        pool = PendingPool(0)
        job = J(0, 0, 2)
        pool.add(job)
        assert pool.peek().uid == job.uid
        assert len(pool) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PendingPool(0).pop()

    def test_earliest_deadline(self):
        pool = PendingPool(0)
        assert pool.earliest_deadline() is None
        pool.add(J(0, 2, 2))
        assert pool.earliest_deadline() == 4

    def test_drop_expired_only_due(self):
        pool = PendingPool(0)
        due = J(0, 0, 2)       # deadline 2
        not_due = J(0, 0, 4)   # deadline 4
        pool.add(due)
        pool.add(not_due)
        dropped = pool.drop_expired(2)
        assert [j.uid for j in dropped] == [due.uid]
        assert len(pool) == 1

    def test_drop_expired_removed_jobs_not_counted(self):
        # An executed job left the heap at once: the drop phase never
        # sees it again.
        pool = PendingPool(0)
        job = J(0, 0, 2)
        pool.add(job)
        pool.pop()
        assert pool.drop_expired(2) == []

    def test_contains_tracks_membership(self):
        pool = PendingPool(0)
        job = J(0, 0, 2)
        assert job not in pool.pending_jobs()
        pool.add(job)
        assert job in pool.pending_jobs()
        pool.pop()
        assert job not in pool.pending_jobs()

    def test_pending_jobs_snapshot_sorted(self):
        pool = PendingPool(0)
        jobs = [J(0, 4, 4), J(0, 0, 2), J(0, 2, 4)]
        for job in jobs:
            pool.add(job)
        snapshot = pool.pending_jobs()
        deadlines = [j.deadline for j in snapshot]
        assert deadlines == sorted(deadlines)
        assert len(snapshot) == 3


class TestPendingStore:
    def test_nonidle_colors(self):
        store = PendingStore()
        store.add(J(0, 0, 2))
        store.add(J(1, 0, 4))
        store.execute_one(0)
        assert store.nonidle_colors() == [1]

    def test_idle_unknown_color(self):
        assert PendingStore().idle(42)

    def test_pending_counts(self):
        store = PendingStore()
        store.add(J(0, 0, 2))
        store.add(J(0, 0, 2))
        store.add(J(1, 0, 4))
        assert store.pending_count(0) == 2
        assert store.pending_count() == 3
        assert store.pending_count(9) == 0

    def test_execute_one_pops_earliest(self):
        store = PendingStore()
        early, late = J(0, 0, 2), J(0, 0, 4)
        store.add(late)
        store.add(early)
        assert store.execute_one(0).uid == early.uid

    def test_execute_idle_returns_none(self):
        assert PendingStore().execute_one(5) is None

    def test_drop_expired_across_colors(self):
        store = PendingStore()
        store.add(J(0, 0, 2))
        store.add(J(1, 0, 2))
        store.add(J(2, 0, 4))
        dropped = store.drop_expired(2)
        assert {j.color for j in dropped} == {0, 1}
        assert store.pending_count() == 1


#: store operations: jobs arrive at most three rounds after the clock with
#: per-job delay bounds (so a newer job can become its pool's head), the
#: clock advances only at drops, sometimes skipping rounds.
store_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.integers(0, 3), st.integers(0, 3),
            st.sampled_from([1, 2, 3, 5, 8]),
        ),
        st.tuples(st.just("execute"), st.integers(0, 3)),
        st.tuples(st.just("drop"), st.integers(0, 3)),
    ),
    max_size=80,
)


@given(ops=store_ops)
@settings(max_examples=300, deadline=None)
def test_drop_phase_matches_a_walk_over_every_pool(ops):
    """The due queue against an oracle that walks every pool, in creation
    order, at every drop: the same jobs dropped in the same order, the
    same idle-flip feed, nonidle colors and pending counts."""
    store = PendingStore()
    model: dict[int, list[Job]] = {}  # creation order, like the store
    flips: set[int] = set()
    now = 0

    def change(color, jobs):
        if bool(model.get(color)) != bool(jobs):
            flips.add(color)
        model[color] = jobs

    for op in ops:
        kind, color = op[0], op[1]
        if kind == "add":
            job = J(color, now + op[2], op[3])
            store.add(job)
            change(color, model.get(color, []) + [job])
        elif kind == "execute":
            jobs = sorted(model.get(color, []), key=Job.sort_key)
            got = store.execute_one(color)
            if jobs:
                assert got.uid == jobs[0].uid
                change(color, jobs[1:])
            else:
                assert got is None
        else:
            now += op[1]
            expected = []
            for c, jobs in list(model.items()):
                due = sorted((j for j in jobs if j.deadline <= now), key=Job.sort_key)
                expected += due
                change(c, [j for j in jobs if j.deadline > now])
            assert [j.uid for j in store.drop_expired(now)] == [j.uid for j in expected]
        assert store.take_idle_flips() == flips
        flips.clear()
        assert store.nonidle_colors() == [c for c, jobs in model.items() if jobs]
        assert store.pending_count() == sum(map(len, model.values()))
        for c in range(4):
            assert store.pending_count(c) == len(model.get(c, []))

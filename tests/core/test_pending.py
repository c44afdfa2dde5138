"""Unit tests for repro.core.pending."""

import heapq
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pending as pending_module
from repro.core.job import Job
from repro.core.pending import PendingPool, PendingStore
from repro.core.request import Instance, Request, RequestSequence
from repro.core.simulator import Simulator
from repro.policies.dlru_edf import DeltaLRUEDFPolicy


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


class TestRuns:
    """A group of one round's jobs with one color object and one bound
    is one heap entry; every other group is one entry per job."""

    def test_group_becomes_one_entry(self):
        pool = PendingPool(0)
        group = [J(0, 0, 2) for _ in range(5)]
        pool.add_group(group)
        assert len(pool._heap) == 1
        assert len(pool) == 5
        assert pool.peek() is group[0]

    @pytest.mark.parametrize("colors, bounds", [
        ((0, 0.0, 0), (2, 2, 2)),
        ((0, False, 0), (2, 2, 2)),
        ((0, 0, 0), (2, 4, 2)),
    ])
    def test_mixed_group_keeps_one_entry_per_job(self, colors, bounds):
        pool = PendingPool(0)
        pool.add_group([J(c, 0, b) for c, b in zip(colors, bounds)])
        assert len(pool._heap) == 3
        assert len(pool) == 3

    def test_rejects_wrong_color(self):
        with pytest.raises(ValueError):
            PendingPool(0).add_group([J(1, 0, 2), J(1, 0, 2)])


class TestArrivalWork:
    """Counts, not times: a round's arrivals cost one push per color."""

    def test_one_push_per_color_and_one_grouping(self, monkeypatch):
        jobs = [J(color, 0, 4) for _ in range(8) for color in range(64)]
        sim = Simulator(
            Instance(RequestSequence(jobs), delta=4), DeltaLRUEDFPolicy(4), n=16
        )
        pushes, groupings = [], []
        by_color = Request.by_color

        def counted_push(heap, item):
            pushes.append(heap)
            heapq.heappush(heap, item)

        def counted_by_color(request):
            groupings.append(by_color(request))
            return groupings[-1]

        monkeypatch.setattr(pending_module, "heapq", SimpleNamespace(
            heappush=counted_push, heappop=heapq.heappop
        ))
        monkeypatch.setattr(Request, "by_color", counted_by_color)
        sim.step(0)
        heaps = [sim.pending.pool(color)._heap for color in range(64)]
        assert sum(any(push is heap for heap in heaps) for push in pushes) <= 64
        # The simulator and the policy's arrival hook read one grouping.
        assert len(groupings) >= 2
        assert all(groups is groupings[0] for groups in groupings)
        assert sim.pending.pending_count() == 512 - len(sim.last_executed)


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


#: equal but distinct color objects for each store color.
EQUAL_COLORS = {0: (0, 0.0, False), 1: (1, 1.0, True), 2: (2, 2.0), 3: (3, 3.0)}

#: store operations: jobs arrive at most three rounds after the clock with
#: per-job delay bounds (so a newer job can become its pool's head), the
#: clock advances only at drops, sometimes skipping rounds.  A ``group``
#: op adds 2-6 jobs of one round in one ``add_arrivals`` call, each color
#: as one of its ``EQUAL_COLORS`` variants; in half of the groups every
#: job takes the first job's variant and bound, so each color forms a run.
bounds = st.sampled_from([1, 2, 3, 5, 8])
store_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.integers(0, 3), st.integers(0, 3), bounds,
        ),
        st.tuples(st.just("execute"), st.integers(0, 3)),
        st.tuples(st.just("drop"), st.integers(0, 3)),
        st.tuples(
            st.just("group"), st.integers(0, 3),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 2), bounds),
                min_size=2, max_size=6,
            ),
            st.booleans(),
        ),
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
    # As in the simulator, a group's round gets no other add.
    single_rounds: set[int] = set()
    group_rounds: set[int] = set()

    def change(color, jobs):
        if bool(model.get(color)) != bool(jobs):
            flips.add(color)
        model[color] = jobs

    for op in ops:
        kind, color = op[0], op[1]
        if kind == "add":
            arrival = now + op[2]
            if arrival not in group_rounds:
                single_rounds.add(arrival)
                job = J(color, arrival, op[3])
                store.add(job)
                change(color, model.get(color, []) + [job])
        elif kind == "group":
            arrival = now + op[1]
            if arrival not in single_rounds | group_rounds:
                group_rounds.add(arrival)
                specs = op[2]
                if op[3]:  # one variant and bound per round: runs
                    _, variant, bound = specs[0]
                    specs = [(c, variant, bound) for c, _, _ in specs]
                jobs = [
                    J(EQUAL_COLORS[c][v % len(EQUAL_COLORS[c])], arrival, b)
                    for c, v, b in specs
                ]
                groups = Request(arrival, tuple(jobs)).by_color()
                store.add_arrivals(groups)
                for c, group in groups.items():
                    change(c, model.get(c, []) + group)
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

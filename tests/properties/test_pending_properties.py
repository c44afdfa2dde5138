"""Model-based tests: PendingPool against a naive sorted-list model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.pending import PendingPool

#: colors equal to the pool's color 0 but distinct objects: a group that
#: mixes them (or bounds) keeps one entry per job, any other becomes a run.
EQUAL_COLORS = (0, 0.0, False)


@st.composite
def operations(draw):
    """A list of (op, arg) operations on one pool.

    A ``group`` op adds 2-6 jobs of one arrival round in one
    ``add_group`` call.  As in the simulator, that round's jobs are added
    in that one call: no other add uses its arrival round.
    """
    ops = []
    singles: set[int] = set()
    groups: set[int] = set()
    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["add", "group", "pop", "peek", "drop"]))
        if op == "add":
            free = [a for a in range(21) if a not in groups]
            if not free:
                continue
            arrival = draw(st.sampled_from(free))
            singles.add(arrival)
            bound = draw(st.sampled_from([1, 2, 4, 8]))
            ops.append(("add", (arrival, bound)))
        elif op == "group":
            free = [a for a in range(21) if a not in singles | groups]
            if not free:
                continue
            arrival = draw(st.sampled_from(free))
            groups.add(arrival)
            specs = draw(st.lists(
                st.tuples(
                    st.sampled_from(EQUAL_COLORS), st.sampled_from([1, 2, 4, 8])
                ),
                min_size=2, max_size=6,
            ))
            if draw(st.booleans()):  # one color object and bound: a run
                specs = [specs[0]] * len(specs)
            ops.append(("group", (arrival, specs, draw(st.booleans()))))
        elif op == "drop":
            ops.append(("drop", draw(st.integers(0, 30))))
        else:
            ops.append((op, None))
    return ops


@given(ops=operations())
@settings(max_examples=300, deadline=None)
def test_pool_matches_sorted_list_model(ops):
    pool = PendingPool(0)
    model: list[Job] = []

    for op, arg in ops:
        if op == "add":
            arrival, bound = arg
            job = Job(color=0, arrival=arrival, delay_bound=bound)
            pool.add(job)
            model.append(job)
            model.sort(key=Job.sort_key)
        elif op == "group":
            arrival, specs, shuffled = arg
            group = [
                Job(color=color, arrival=arrival, delay_bound=bound)
                for color, bound in specs
            ]
            if shuffled:  # uids out of order within the group
                group.reverse()
            given_group = list(group)
            pool.add_group(group)
            assert group == given_group
            model += group
            model.sort(key=Job.sort_key)
        elif op == "pop":
            if model:
                expected = model.pop(0)
                assert pool.pop().uid == expected.uid
            else:
                assert pool.idle
        elif op == "peek":
            if model:
                assert pool.peek().uid == model[0].uid
            else:
                assert pool.peek() is None
        elif op == "drop":
            rnd = arg
            expected = [j for j in model if j.deadline <= rnd]
            model = [j for j in model if j.deadline > rnd]
            dropped = pool.drop_expired(rnd)
            # Drop order, not just membership: the event digest hashes it.
            assert [j.uid for j in dropped] == [j.uid for j in expected]

        assert len(pool) == len(model)
        assert pool.idle == (not model)
        assert pool.earliest_deadline() == (model[0].deadline if model else None)

    snapshot = pool.pending_jobs()
    assert [j.uid for j in snapshot] == [j.uid for j in model]

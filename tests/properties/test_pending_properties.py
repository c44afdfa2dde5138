"""Model-based tests: PendingPool against a naive sorted-list model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.pending import PendingPool


@st.composite
def operations(draw):
    """A list of (op, arg) operations on one pool."""
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["add", "pop", "peek", "drop"]))
        if op == "add":
            arrival = draw(st.integers(0, 20))
            bound = draw(st.sampled_from([1, 2, 4, 8]))
            ops.append(("add", (arrival, bound)))
        elif op == "drop":
            ops.append(("drop", draw(st.integers(0, 30))))
        else:
            ops.append((op, None))
    return ops


@given(ops=operations())
@settings(max_examples=200, deadline=None)
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
            expected = sorted(
                (j for j in model if j.deadline <= rnd), key=Job.sort_key
            )
            model = [j for j in model if j.deadline > rnd]
            dropped = pool.drop_expired(rnd)
            assert sorted(j.uid for j in dropped) == sorted(j.uid for j in expected)

        assert len(pool) == len(model)
        assert pool.idle == (not model)

    snapshot = pool.pending_jobs()
    assert [j.uid for j in snapshot] == [j.uid for j in model]

"""Property-based tests for the Aggregate and punctualization constructions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.offline.aggregate import aggregate_schedule
from repro.opt import solve_opt
from repro.offline.punctual import classify_execution, punctualize
from repro.reductions.distribute import distribute_sequence

from tests.conftest import jobs_strategy

tiny_batched = jobs_strategy(max_jobs=10, max_colors=3, max_round=8, batched=True)
tiny_general = jobs_strategy(
    max_jobs=10, max_colors=3, max_round=8,
    bounds=st.sampled_from([2, 4, 8]),
)


@given(jobs=tiny_batched, delta=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_aggregate_lemma_41_on_opt_schedules(jobs, delta):
    """Aggregate(OPT): valid for the split instance, same executions,
    bounded reconfiguration blow-up (Lemmas 4.3, 4.5, 4.6)."""
    sequence = RequestSequence(jobs)
    instance = Instance(sequence, delta)
    opt = solve_opt(instance, m=1)
    split = distribute_sequence(sequence)
    result = aggregate_schedule(opt.schedule, sequence, split)
    validate_schedule(result.schedule, split, delta)
    assert len(result.schedule.executed_uids()) == len(opt.schedule.executed_uids())
    base = max(opt.schedule.reconfig_count(), 1)
    assert result.schedule.reconfig_count() <= 8 * base


@given(jobs=tiny_general, delta=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_punctualize_lemma_53_on_opt_schedules(jobs, delta):
    """punctualize(OPT): valid, punctual, same executions, 7 resources,
    bounded reconfiguration blow-up (Lemma 5.3)."""
    sequence = RequestSequence(jobs)
    instance = Instance(sequence, delta)
    opt = solve_opt(instance, m=1)
    out = punctualize(opt.schedule, sequence)
    validate_schedule(out, sequence, delta)
    assert out.n == 7
    assert out.executed_uids() == opt.schedule.executed_uids()
    jobs_by_uid = {j.uid: j for j in sequence.jobs()}
    for ex in out.executions:
        assert classify_execution(jobs_by_uid[ex.uid], ex.round) == "punctual"
    base = max(opt.schedule.reconfig_count(), 1)
    assert out.reconfig_count() <= 12 * base


@given(jobs=tiny_batched, delta=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_aggregate_on_heuristic_schedules(jobs, delta):
    """Aggregate must handle *any* valid schedule, not just optimal ones —
    here the window planner's (different reconfiguration structure)."""
    from repro.offline.heuristic import window_planner_schedule

    sequence = RequestSequence(jobs)
    instance = Instance(sequence, delta)
    t = window_planner_schedule(instance, m=2, window=4)
    split = distribute_sequence(sequence)
    result = aggregate_schedule(t, sequence, split)
    validate_schedule(result.schedule, split, delta)
    assert len(result.schedule.executed_uids()) == len(t.executed_uids())

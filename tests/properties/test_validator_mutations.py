"""Metamorphic tests of the schedule validator.

Take a known-valid schedule (produced by DeltaLRU-EDF on a random batched
instance) and apply a corrupting mutation; the validator must reject every
mutated schedule.  This guards the guard: a validator that silently accepts
broken schedules would defeat the whole property-testing strategy.
"""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.request import Instance, RequestSequence
from repro.core.schedule import (
    Execution,
    Reconfiguration,
    ScheduleError,
    validate_schedule,
)
from repro.core.simulator import simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy

from tests.conftest import jobs_strategy


def make_valid(jobs, delta=2, n=4):
    instance = Instance(RequestSequence(jobs), delta)
    run = simulate(instance, DeltaLRUEDFPolicy(delta), n=n)
    return instance, run.schedule


batched = jobs_strategy(max_jobs=20, max_colors=3, max_round=12, batched=True)


@given(jobs=batched, pick=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_duplicated_execution_rejected(jobs, pick):
    instance, schedule = make_valid(jobs)
    assume(schedule.executions)
    victim = schedule.executions[pick % len(schedule.executions)]
    mutated = copy.deepcopy(schedule)
    mutated.executions.append(victim)
    with pytest.raises(ScheduleError):
        validate_schedule(mutated, instance.sequence, instance.delta)


@given(jobs=batched, pick=st.integers(0, 10_000), shift=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_execution_pushed_past_deadline_rejected(jobs, pick, shift):
    instance, schedule = make_valid(jobs)
    assume(schedule.executions)
    jobs_by_uid = {j.uid: j for j in instance.sequence.jobs()}
    victim = schedule.executions[pick % len(schedule.executions)]
    job = jobs_by_uid[victim.uid]
    mutated = copy.deepcopy(schedule)
    mutated.executions.remove(victim)
    mutated.executions.append(
        Execution(job.deadline + shift, victim.mini, victim.location, victim.uid)
    )
    with pytest.raises(ScheduleError):
        validate_schedule(mutated, instance.sequence, instance.delta)


@given(jobs=batched, pick=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_execution_before_arrival_rejected(jobs, pick):
    instance, schedule = make_valid(jobs)
    jobs_by_uid = {j.uid: j for j in instance.sequence.jobs()}
    movable = [
        ex for ex in schedule.executions if jobs_by_uid[ex.uid].arrival > 0
    ]
    assume(movable)
    victim = movable[pick % len(movable)]
    mutated = copy.deepcopy(schedule)
    mutated.executions.remove(victim)
    mutated.executions.append(Execution(0, 0, victim.location, victim.uid))
    # Round 0 is before the job's arrival; the location may also be black or
    # wrongly colored there — either way it must be rejected.
    with pytest.raises(ScheduleError):
        validate_schedule(mutated, instance.sequence, instance.delta)


@given(jobs=batched, pick=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_recolored_location_rejected(jobs, pick):
    """Recoloring a location to a bogus color invalidates executions on it."""
    instance, schedule = make_valid(jobs)
    assume(schedule.executions)
    victim = schedule.executions[pick % len(schedule.executions)]
    mutated = copy.deepcopy(schedule)
    bogus = ("bogus", "color")
    mutated.reconfigs = [
        rc for rc in mutated.reconfigs
        if not (rc.location == victim.location and (rc.round, rc.mini) == (victim.round, victim.mini))
    ]
    mutated.reconfigs.append(
        Reconfiguration(victim.round, victim.mini, victim.location, bogus)
    )
    with pytest.raises(ScheduleError):
        validate_schedule(mutated, instance.sequence, instance.delta)


@given(jobs=batched)
@settings(max_examples=40, deadline=None)
def test_foreign_uid_rejected(jobs):
    instance, schedule = make_valid(jobs)
    mutated = copy.deepcopy(schedule)
    mutated.reconfigs.append(Reconfiguration(0, 0, 0, 0))
    mutated.executions.append(Execution(0, 0, 0, 10**12))
    with pytest.raises(ScheduleError):
        validate_schedule(mutated, instance.sequence, instance.delta)


@given(jobs=batched)
@settings(max_examples=40, deadline=None)
def test_out_of_range_location_rejected(jobs):
    instance, schedule = make_valid(jobs)
    mutated = copy.deepcopy(schedule)
    mutated.reconfigs.append(Reconfiguration(0, 0, mutated.n + 3, 0))
    with pytest.raises(ScheduleError):
        validate_schedule(mutated, instance.sequence, instance.delta)

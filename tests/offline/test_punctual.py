"""Unit tests for punctualization (Lemmas 5.1–5.3)."""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import Schedule, validate_schedule
from repro.opt import solve_opt
from repro.offline.punctual import (
    classify_execution,
    punctualize,
    punctualize_early,
    split_by_punctuality,
)
from repro.workloads.generators import uniform_workload


def J(color, arrival, bound, **kw):
    return Job(color=color, arrival=arrival, delay_bound=bound, **kw)


class TestClassification:
    def test_early(self):
        job = J(0, 0, 8)  # half-blocks of 4
        assert classify_execution(job, 2) == "early"

    def test_punctual(self):
        job = J(0, 0, 8)
        assert classify_execution(job, 5) == "punctual"

    def test_late(self):
        job = J(0, 2, 8)  # arrival hb 0, window up to round 9
        assert classify_execution(job, 8) == "late"

    def test_bound_one_always_punctual(self):
        assert classify_execution(J(0, 3, 1), 3) == "punctual"

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            classify_execution(J(0, 0, 8), 12)

    def test_odd_bound_rejected(self):
        with pytest.raises(ValueError):
            classify_execution(J(0, 0, 3), 0)


class TestSplit:
    def test_partition_covers_all_executions(self):
        inst = uniform_workload(
            num_colors=3, horizon=16, delta=2, seed=2,
            jobs_per_round=1, min_exp=1, max_exp=3,
        )
        opt = solve_opt(inst, m=1)
        parts = split_by_punctuality(opt.schedule, inst.sequence)
        total = sum(len(p.executions) for p in parts.values())
        assert total == len(opt.schedule.executions)

    def test_each_part_keeps_reconfigs(self):
        inst = uniform_workload(
            num_colors=2, horizon=8, delta=1, seed=3,
            jobs_per_round=1, min_exp=1, max_exp=2,
        )
        opt = solve_opt(inst, m=1)
        parts = split_by_punctuality(opt.schedule, inst.sequence)
        for part in parts.values():
            assert len(part.reconfigs) == len(opt.schedule.reconfigs)


class TestPunctualizeEarly:
    def test_simple_early_run(self):
        # Two jobs executed in their arrival half-block.
        jobs = [J(0, 0, 8, uid=1), J(0, 1, 8, uid=2)]
        seq = RequestSequence(jobs)
        s = Schedule(n=1)
        s.add_reconfig(0, 0, 0)
        s.add_execution(0, 0, 1)
        s.add_execution(1, 0, 2)
        out = punctualize_early(s, seq)
        led = validate_schedule(out, seq, delta=1)
        assert out.executed_uids() == {1, 2}
        for ex in out.executions:
            job = next(j for j in seq.jobs() if j.uid == ex.uid)
            assert classify_execution(job, ex.round) == "punctual"

    def test_rejects_multi_resource(self):
        seq = RequestSequence([J(0, 0, 8)])
        with pytest.raises(ValueError):
            punctualize_early(Schedule(n=2), seq)


class TestPunctualizeFull:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_opt_schedules_punctualize(self, seed):
        inst = uniform_workload(
            num_colors=3, horizon=20, delta=2, seed=seed,
            jobs_per_round=1, min_exp=1, max_exp=3,
        )
        opt = solve_opt(inst, m=1)
        out = punctualize(opt.schedule, inst.sequence)
        led = validate_schedule(out, inst.sequence, inst.delta)
        # Lemma 5.3: same jobs executed on 7 resources, all punctually.
        assert out.n == 7
        assert out.executed_uids() == opt.schedule.executed_uids()
        jobs = {j.uid: j for j in inst.sequence.jobs()}
        assert all(
            classify_execution(jobs[ex.uid], ex.round) == "punctual"
            for ex in out.executions
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconfig_cost_within_constant_factor(self, seed):
        inst = uniform_workload(
            num_colors=3, horizon=20, delta=2, seed=seed,
            jobs_per_round=1, min_exp=1, max_exp=3,
        )
        opt = solve_opt(inst, m=1)
        out = punctualize(opt.schedule, inst.sequence)
        base = max(opt.schedule.reconfig_count(), 1)
        # Lemma 5.3's constant: 3x (early) + 1x (punctual) + 3x (late),
        # each O(C); assert a safe 12x envelope.
        assert out.reconfig_count() <= 12 * base

    def test_rejects_multi_resource(self):
        seq = RequestSequence([J(0, 0, 8)])
        with pytest.raises(ValueError):
            punctualize(Schedule(n=3), seq)

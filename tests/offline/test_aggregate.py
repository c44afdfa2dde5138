"""Unit tests for the Aggregate transformation (Lemma 4.1)."""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import Schedule, validate_schedule
from repro.offline.aggregate import aggregate_schedule
from repro.opt import solve_opt
from repro.reductions.distribute import distribute_sequence
from repro.workloads.generators import batched_workload


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


def transform(inst, m=1):
    opt = solve_opt(inst, m=m)
    split = distribute_sequence(inst.sequence)
    result = aggregate_schedule(opt.schedule, inst.sequence, split)
    return opt, split, result


class TestAggregateOnOptSchedules:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_validates_and_preserves_executions(self, seed):
        inst = batched_workload(
            num_colors=3, horizon=16, delta=2, seed=seed,
            mean_batch=1.0, max_exp=3,
        )
        opt, split, result = transform(inst)
        validate_schedule(result.schedule, split, inst.delta)
        # Lemma 4.5: same number of executions (drop cost equality).
        assert len(result.schedule.executed_uids()) == len(
            opt.schedule.executed_uids()
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconfig_cost_within_constant_factor(self, seed):
        inst = batched_workload(
            num_colors=3, horizon=16, delta=2, seed=seed,
            mean_batch=1.5, max_exp=3,
        )
        opt, split, result = transform(inst)
        t_reconfigs = max(opt.schedule.reconfig_count(), 1)
        # Lemma 4.6's constant; the paper's accounting yields <= 7x
        # (1x special + 6x nonspecial); we assert a safe 8x.
        assert result.schedule.reconfig_count() <= 8 * t_reconfigs

    def test_uses_three_times_the_resources(self):
        inst = batched_workload(num_colors=2, horizon=8, delta=1, seed=7)
        opt, split, result = transform(inst)
        assert result.schedule.n == 3 * opt.schedule.n

    def test_two_resource_input(self):
        inst = batched_workload(
            num_colors=3, horizon=16, delta=2, seed=5, mean_batch=1.0, max_exp=2
        )
        opt, split, result = transform(inst, m=2)
        validate_schedule(result.schedule, split, inst.delta)
        assert result.schedule.n == 6
        assert len(result.schedule.executed_uids()) == len(
            opt.schedule.executed_uids()
        )


class TestAggregateCornerCases:
    def test_empty_schedule(self):
        seq = RequestSequence([J(0, 0, 2)])
        split = distribute_sequence(seq)
        result = aggregate_schedule(Schedule(n=1), seq, split)
        assert result.schedule.executed_uids() == set()
        assert result.schedule.reconfig_count() == 0

    def test_oversized_batches_split_across_subcolors(self):
        # 6 jobs of bound 2 in one batch: sub-colors (0,0..2); a schedule
        # executing 4 of them on 2 resources.
        seq = RequestSequence([J(0, 0, 2) for _ in range(6)])
        uids = [job.uid for job in seq.jobs()]
        t = Schedule(n=2)
        t.add_reconfig(0, 0, 0)
        t.add_reconfig(0, 1, 0)
        t.add_execution(0, 0, uids[0])
        t.add_execution(0, 1, uids[1])
        t.add_execution(1, 0, uids[2])
        t.add_execution(1, 1, uids[3])
        split = distribute_sequence(seq)
        result = aggregate_schedule(t, seq, split)
        validate_schedule(result.schedule, split, delta=1)
        assert len(result.schedule.executed_uids()) == 4

    def test_rejects_double_speed(self):
        seq = RequestSequence([J(0, 0, 2)])
        split = distribute_sequence(seq)
        with pytest.raises(ValueError):
            aggregate_schedule(Schedule(n=1, speed=2), seq, split)

    def test_mixed_bounds_nested_blocks(self):
        jobs = (
            [J(0, a, 2) for a in (0, 2, 4, 6)]
            + [J(1, 0, 4) for _ in range(3)]
            + [J(2, 0, 8) for _ in range(5)]
        )
        seq = RequestSequence(jobs)
        inst = Instance(seq, delta=1)
        opt = solve_opt(inst, m=1)
        split = distribute_sequence(seq)
        result = aggregate_schedule(opt.schedule, seq, split)
        validate_schedule(result.schedule, split, inst.delta)
        assert len(result.schedule.executed_uids()) == len(
            opt.schedule.executed_uids()
        )

"""Unit tests for the opt formulation layer (repro.opt.model)."""

import pytest

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.opt.brute import solve_brute
from repro.opt.model import compile_model


def inst_of(jobs, delta=2):
    return Instance(RequestSequence(jobs), delta=delta)


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestCompile:
    def test_empty_instance(self):
        model = compile_model(inst_of([]), m=1)
        assert model.num_jobs == 0
        assert model.colors == ()
        assert model.arrivals == {}
        assert model.excluded_jobs == 0

    def test_colors_are_interned_from_one(self):
        model = compile_model(inst_of([J(7, 0, 2), J(3, 0, 2)]), m=1)
        # cid 0 is reserved for black (the idle color); natives start at 1.
        assert model.colors == (3, 7)
        assert sorted(model.arrivals[0]) == [1, 2]
        assert model.color_of(1) == 3
        assert model.color_of(2) == 7

    def test_jobs_carry_deadline_and_window(self):
        # The window is [arrival, deadline): the arrival round keys the
        # summary, and the deadline rides in it.
        model = compile_model(inst_of([J(0, 1, 3)]), m=1, horizon=8)
        assert model.num_jobs == 1
        assert model.arrivals == {1: {1: ((4, 1),)}}

    def test_horizon_caps_window(self):
        # A job due past the horizon keeps its true deadline in-model, but
        # it can only run before the horizon: whatever is still pending
        # there is charged as a drop.
        jobs = [J(0, 1, 50) for _ in range(5)]
        model = compile_model(inst_of(jobs, delta=1), m=1, horizon=4)
        assert model.arrivals == {1: {1: ((51, 5),)}}
        assert model.excluded_jobs == 0
        # One reconfiguration, runs in rounds 1-3, two drops.
        assert solve_brute(model).cost == 1 + 2

    def test_horizon_defaults_to_sequence_horizon(self):
        inst = inst_of([J(0, 0, 2), J(1, 5, 2)])
        model = compile_model(inst, m=2)
        assert model.horizon == inst.sequence.horizon

    def test_horizon_cannot_exceed_sequence_horizon(self):
        inst = inst_of([J(0, 0, 2)])
        model = compile_model(inst, m=1, horizon=10_000)
        assert model.horizon == inst.sequence.horizon

    def test_jobs_past_horizon_are_excluded_not_charged(self):
        inst = inst_of([J(0, 0, 2), J(0, 6, 2), J(0, 7, 2)])
        model = compile_model(inst, m=1, horizon=4)
        assert model.num_jobs == 1
        assert model.excluded_jobs == 2

    def test_arrivals_group_by_round_and_cid(self):
        inst = inst_of([J(0, 0, 2), J(0, 0, 2), J(1, 2, 4)])
        model = compile_model(inst, m=2)
        round0 = model.arrivals[0]
        cid0 = model.colors.index(0) + 1
        assert sum(count for _, count in round0[cid0]) == 2
        assert set(model.arrivals) == {0, 2}

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            compile_model(inst_of([J(0, 0, 2)]), m=0)

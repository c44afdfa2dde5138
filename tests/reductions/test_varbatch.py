"""Unit tests for Algorithm VarBatch (Sections 5.1, 5.3)."""

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import validate_schedule
from repro.core.simulator import simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.reductions.varbatch import pull_back_schedule, varbatch_sequence


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


class TestVarbatchSequence:
    def test_delays_to_next_half_block(self):
        seq = RequestSequence([J(0, 1, 8)])  # half-block 0 of period 4
        out = varbatch_sequence(seq)
        job = next(out.jobs())
        assert job.arrival == 4
        assert job.delay_bound == 4

    def test_boundary_arrival_moves_forward(self):
        # Arrival exactly on a boundary still delays one period (the paper
        # delays everything arriving *in* halfBlock(p, i)).
        seq = RequestSequence([J(0, 4, 8)])
        out = varbatch_sequence(seq)
        assert next(out.jobs()).arrival == 8

    def test_result_is_batched(self):
        jobs = [J(0, a, 8) for a in (0, 1, 5, 9)] + [J(1, 3, 4)]
        out = varbatch_sequence(RequestSequence(jobs))
        assert out.is_batched()

    def test_derived_window_inside_original(self):
        jobs = [J(c % 3, a, b) for a in range(10) for c, b in [(0, 4), (1, 8), (2, 16)]]
        seq = RequestSequence(jobs)
        originals = {j.uid: j for j in seq.jobs()}
        for derived in varbatch_sequence(seq).jobs():
            native = originals[derived.origin]
            assert native.arrival <= derived.arrival
            assert derived.deadline <= native.deadline

    def test_bound_one_passes_through(self):
        seq = RequestSequence([J(0, 3, 1)])
        out = varbatch_sequence(seq)
        job = next(out.jobs())
        assert job.arrival == 3
        assert job.delay_bound == 1
        assert job.origin is not None

    def test_bound_two_and_three_use_period_one(self):
        seq = RequestSequence([J(0, 3, 2), J(1, 3, 3)])
        out = varbatch_sequence(seq)
        for job in out.jobs():
            assert job.arrival == 4
            assert job.delay_bound == 1

    def test_non_power_of_two_bounds(self):
        seq = RequestSequence([J(0, 5, 12)])  # j=3 -> period 2
        out = varbatch_sequence(seq)
        job = next(out.jobs())
        assert job.delay_bound == 2
        assert job.arrival == 6
        assert job.deadline <= 5 + 12

    def test_horizon_never_shrinks(self):
        seq = RequestSequence([J(0, 0, 8)], horizon=32)
        assert varbatch_sequence(seq).horizon >= 32

    def test_empty_sequence(self):
        out = varbatch_sequence(RequestSequence([]))
        assert out.num_jobs == 0


class TestPullBack:
    def test_round_trip_validates_against_original(self):
        jobs = [J(c % 2, a, 8) for a in range(8) for c in range(2)]
        seq = RequestSequence(jobs)
        batched = varbatch_sequence(seq)
        inst = Instance(batched, delta=2)
        run = simulate(inst, DeltaLRUEDFPolicy(2), n=8)
        pulled = pull_back_schedule(run.schedule, batched, seq)
        validate_schedule(pulled, seq, 2)

    def test_drop_cost_preserved(self):
        jobs = [J(0, a, 4) for a in range(6)]
        seq = RequestSequence(jobs)
        batched = varbatch_sequence(seq)
        inst = Instance(batched, delta=1)
        run = simulate(inst, DeltaLRUEDFPolicy(1), n=4)
        pulled = pull_back_schedule(run.schedule, batched, seq)
        assert (seq.num_jobs - len(pulled.executed_uids())) == (
            batched.num_jobs - len(run.schedule.executed_uids())
        )

    def test_reconfigs_carried_verbatim(self):
        jobs = [J(0, 1, 4)]
        seq = RequestSequence(jobs)
        batched = varbatch_sequence(seq)
        inst = Instance(batched, delta=1)
        run = simulate(inst, DeltaLRUEDFPolicy(1), n=4)
        pulled = pull_back_schedule(run.schedule, batched, seq)
        assert pulled.reconfig_count() == run.schedule.reconfig_count()

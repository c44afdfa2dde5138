"""Unit tests for the paper's ranking schemes."""

from repro.core.job import Job
from repro.policies.ranking import eligible_color_rank_key, job_rank_key
from repro.policies.state import SectionThreeState


def make_state(specs):
    """specs: list of (color, bound, dd)."""
    state = SectionThreeState(delta=1)
    for color, bound, dd in specs:
        st = state.state(color, bound)
        st.dd = dd
        st.eligible = True
    return state


class TestEligibleColorRanking:
    def test_nonidle_before_idle(self):
        state = make_state([(0, 2, 10), (1, 2, 2)])
        key = eligible_color_rank_key(state, idle=lambda c: c == 1)
        # color 1 has the earlier deadline but is idle -> ranks below 0.
        assert sorted([0, 1], key=key) == [0, 1]

    def test_earlier_deadline_first(self):
        state = make_state([(0, 2, 8), (1, 2, 4)])
        key = eligible_color_rank_key(state, idle=lambda c: False)
        assert sorted([0, 1], key=key) == [1, 0]

    def test_deadline_tie_broken_by_delay_bound(self):
        state = make_state([(0, 8, 8), (1, 2, 8)])
        key = eligible_color_rank_key(state, idle=lambda c: False)
        assert sorted([0, 1], key=key) == [1, 0]

    def test_full_tie_broken_by_color_order(self):
        state = make_state([(1, 4, 8), (0, 4, 8)])
        key = eligible_color_rank_key(state, idle=lambda c: False)
        assert sorted([1, 0], key=key) == [0, 1]


class TestJobRanking:
    def test_matches_job_sort_key(self):
        job = Job(color=0, arrival=0, delay_bound=2)
        assert job_rank_key(job) == job.sort_key()

    def test_deadline_then_bound_then_color(self):
        a = Job(color=2, arrival=0, delay_bound=2)   # deadline 2
        b = Job(color=1, arrival=0, delay_bound=4)   # deadline 4
        c = Job(color=0, arrival=2, delay_bound=2)   # deadline 4, tighter bound
        ranked = sorted([b, a, c], key=job_rank_key)
        assert [j.uid for j in ranked] == [a.uid, c.uid, b.uid]

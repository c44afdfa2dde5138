"""Unit tests for the ASCII timeline renderer."""

from repro.analysis.timeline import render_timeline, timeline_stats
from repro.core.job import Job
from repro.core.request import RequestSequence
from repro.core.schedule import Schedule
from repro.core.simulator import simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.workloads.generators import rate_limited_workload


def J(color, arrival, bound, **kw):
    return Job(color=color, arrival=arrival, delay_bound=bound, **kw)


def make_schedule():
    seq = RequestSequence([J(0, 0, 4, uid=1), J(1, 0, 4, uid=2)])
    s = Schedule(n=2)
    s.add_reconfig(0, 0, 0)
    s.add_reconfig(1, 1, 1)
    s.add_execution(0, 0, 1)
    s.add_execution(2, 1, 2)
    return seq, s


class TestRenderTimeline:
    def test_executed_slots_uppercase(self):
        seq, s = make_schedule()
        text = render_timeline(s, seq)
        rows = [l for l in text.splitlines() if l.startswith("r")]
        assert rows[0].endswith("Aaaaa")  # executed at round 0, then idle
        assert rows[1].endswith(".bBbb")  # black, idle, executed@2, idle, idle

    def test_black_shown_as_dot(self):
        seq, s = make_schedule()
        rows = [l for l in render_timeline(s, seq).splitlines() if l.startswith("r1")]
        assert rows[0].split()[1].startswith(".")

    def test_legend_lists_colors(self):
        seq, s = make_schedule()
        assert "a=0" in render_timeline(s, seq)
        assert "b=1" in render_timeline(s, seq)

    def test_window_clipping(self):
        seq, s = make_schedule()
        text = render_timeline(s, seq, start=2, end=4)
        rows = [l for l in text.splitlines() if l.startswith("r0")]
        assert len(rows[0].split()[1]) == 2

    def test_max_width_clamps(self):
        inst = rate_limited_workload(num_colors=4, horizon=256, delta=2, seed=0)
        run = simulate(inst, DeltaLRUEDFPolicy(2), n=4)
        text = render_timeline(run.schedule, inst.sequence, max_width=40)
        rows = [l for l in text.splitlines() if l.startswith("r0")]
        assert len(rows[0].split()[1]) <= 40

    def test_utilization_line_present(self):
        seq, s = make_schedule()
        assert "utilization" in render_timeline(s, seq)

    def test_real_run_renders(self):
        inst = rate_limited_workload(num_colors=3, horizon=32, delta=2, seed=1)
        run = simulate(inst, DeltaLRUEDFPolicy(2), n=4)
        text = render_timeline(run.schedule, inst.sequence)
        assert text.count("\n") >= 5  # header + 4 resources + legend + stats


class TestTimelineStats:
    def test_counts_match_schedule(self):
        seq, s = make_schedule()
        stats = timeline_stats(s, seq)
        assert stats.busy_slots == 2
        assert stats.n == 2
        assert stats.rounds == seq.horizon

    def test_configured_spans(self):
        seq, s = make_schedule()
        stats = timeline_stats(s, seq)
        # loc 0 configured rounds 0..4 (5), loc 1 rounds 1..4 (4).
        assert stats.configured_slots == 5 + 4

    def test_bounds(self):
        inst = rate_limited_workload(num_colors=3, horizon=64, delta=2, seed=2)
        run = simulate(inst, DeltaLRUEDFPolicy(2), n=4)
        stats = timeline_stats(run.schedule, inst.sequence)
        assert 0.0 <= stats.utilization <= 1.0
        assert stats.utilization <= stats.occupancy <= 1.0

    def test_empty_schedule(self):
        seq = RequestSequence([J(0, 0, 2)])
        stats = timeline_stats(Schedule(n=1), seq)
        assert stats.utilization == 0.0
        assert stats.occupancy == 0.0

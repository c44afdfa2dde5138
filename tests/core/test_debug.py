"""Unit tests for the round narrator."""

import re
import textwrap

from repro.core.debug import narrate
from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.simulator import simulate
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.edf import SeqEDFPolicy


def J(color, arrival, bound):
    return Job(color=color, arrival=arrival, delay_bound=bound)


def tiny_run(record=True, speed=1, policy=None):
    jobs = [J(0, 0, 2), J(0, 0, 2), J(1, 0, 4), J(1, 0, 4), J(1, 0, 4)]
    inst = Instance(RequestSequence(jobs), delta=2)
    pol = policy or DeltaLRUEDFPolicy(2)
    return simulate(inst, pol, n=4, speed=speed, record_events=record)


class TestNarrate:
    def test_all_phases_appear(self):
        text = narrate(tiny_run())
        assert "arrive:" in text
        assert "config:" in text
        assert "execute:" in text

    def test_round_headers(self):
        text = narrate(tiny_run())
        assert "== round 0 ==" in text

    def test_drops_narrated(self):
        # 3 jobs of color 1 but only delta=2 per wrap: with a tiny cache,
        # some drop at their deadline (round 4).
        jobs = [J(0, 0, 4) for _ in range(9)]
        inst = Instance(RequestSequence(jobs), delta=100)  # never eligible
        run = simulate(inst, DeltaLRUEDFPolicy(100), n=4)
        text = narrate(run)
        assert "drop:" in text
        assert "x9" in text

    def test_window_restriction(self):
        text = narrate(tiny_run(), start=1, end=2)
        assert "== round 0 ==" not in text

    def test_unrecorded_run_explains_itself(self):
        text = narrate(tiny_run(record=False))
        assert "record_events" in text

    def test_mini_rounds_tagged_at_double_speed(self):
        run = tiny_run(speed=2, policy=SeqEDFPolicy(2))
        text = narrate(run)
        assert "(mini 1)" in text

    def test_empty_window_message(self):
        run = tiny_run()
        text = narrate(run, start=1000, end=1001)
        assert "no activity" in text

    def test_include_empty_shows_idle_rounds(self):
        jobs = [J(0, 0, 2), J(0, 8, 2)]
        inst = Instance(RequestSequence(jobs), delta=1)
        run = simulate(inst, DeltaLRUEDFPolicy(1), n=4)
        text = narrate(run, include_empty=True)
        assert "(idle)" in text


class TestNarrateGolden:
    """Pin the exact narration for one small run: all four phases, speed=2
    mini-round tags, ledger-delta lines (and their elision on rounds with
    no cost), and empty-round elision (rounds 3-4 are silent)."""

    GOLDEN = textwrap.dedent("""\
        == round 0 ==
          arrive:  5 job(s) (color 0 x5 (bound 2))
          config:  loc0: None -> 0
          execute: loc0 -> job 1 (color 0) (mini 0)
          execute: loc0 -> job 2 (color 0) (mini 1)
          ledger:  drops=0 (cost 0), reconfigs=1 (cost 2)
        == round 1 ==
          execute: loc0 -> job 3 (color 0) (mini 0)
          execute: loc0 -> job 4 (color 0) (mini 1)
        == round 2 ==
          drop:    1 job(s) (color 0 x1)
          ledger:  drops=1 (cost 1), reconfigs=0 (cost 0)
        == round 5 ==
          arrive:  1 job(s) (color 1 x1 (bound 2))
          config:  loc0: 0 -> 1
          execute: loc0 -> job 6 (color 1)
          ledger:  drops=0 (cost 0), reconfigs=1 (cost 2)""")

    def test_golden_output(self):
        # One location at double speed: 4 of the 5 color-0 jobs fit in
        # rounds 0-1, the fifth drops at its deadline; the color-1 job
        # arrives after a quiet gap and forces one recoloring.
        jobs = [J(0, 0, 2), J(0, 0, 2), J(0, 0, 2), J(0, 0, 2), J(0, 0, 2),
                J(1, 5, 2)]
        inst = Instance(RequestSequence(jobs), delta=2)
        run = simulate(inst, SeqEDFPolicy(2), n=1, speed=2, record_events=True)
        text = narrate(run)
        # Job uids come from a process-global counter; renumber relative to
        # this sequence so the golden text is stable under any test order.
        base = min(j.uid for j in jobs) - 1
        text = re.sub(
            r"job (\d+)", lambda m: f"job {int(m.group(1)) - base}", text
        )
        assert text == self.GOLDEN

    def test_ledger_lines_match_trace_deltas(self):
        jobs = [J(0, 0, 2), J(0, 0, 2), J(0, 0, 2)]
        inst = Instance(RequestSequence(jobs), delta=3)
        run = simulate(inst, SeqEDFPolicy(3), n=1, record_events=True)
        text = narrate(run)
        for rnd in range(run.instance.horizon):
            delta = run.ledger.round_delta(rnd)
            line = (
                f"ledger:  drops={delta['drops']} "
                f"(cost {delta['drop_cost']}), "
                f"reconfigs={delta['reconfigs']} "
                f"(cost {delta['reconfig_cost']})"
            )
            if delta["drops"] or delta["reconfigs"]:
                assert line in text
            else:
                assert f"== round {rnd} ==\n  ledger" not in text

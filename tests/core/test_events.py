"""Unit tests for repro.core.events."""

import pytest

from repro.core.engine import ENGINES, make_simulator
from repro.core.events import (
    ArrivalEvent,
    DropEvent,
    EventLog,
    ExecutionEvent,
    ReconfigEvent,
)
from repro.core.job import BLACK, Job
from repro.core.request import Instance, RequestSequence
from repro.policies import make_policy
from tests.core.test_pinned_digests import PALETTES, pinned_instance


def J(color=0):
    return Job(color=color, arrival=0, delay_bound=1)


class TestEventLog:
    def test_disabled_log_drops_events(self):
        log = EventLog(enabled=False)
        log.append(ArrivalEvent(0, 0, J()))
        assert len(log) == 0

    def test_extend_appends_in_order_unless_disabled(self):
        events = [ArrivalEvent(0, 0, J(1)), DropEvent(1, 0, J(2))]
        log = EventLog()
        log.append(ReconfigEvent(0, 0, 0, BLACK, 1))
        log.extend(events)
        assert list(log)[1:] == events
        quiet = EventLog(enabled=False)
        quiet.extend(events)
        assert len(quiet) == 0

    def test_typed_views(self):
        log = EventLog()
        log.append(ArrivalEvent(0, 0, J()))
        log.append(DropEvent(1, 0, J()))
        log.append(ReconfigEvent(1, 0, 0, BLACK, 0))
        log.append(ExecutionEvent(1, 0, 0, J()))
        assert len(log.arrivals()) == 1
        assert len(log.drops()) == 1
        assert len(log.reconfigs()) == 1
        assert len(log.executions()) == 1
        assert len(log) == 4

    def test_iteration_preserves_order(self):
        log = EventLog()
        events = [ArrivalEvent(i, 0, J()) for i in range(5)]
        for e in events:
            log.append(e)
        assert [e.round for e in log] == [0, 1, 2, 3, 4]

    def test_reconfig_event_fields(self):
        event = ReconfigEvent(3, 1, 2, BLACK, 7)
        assert event.round == 3
        assert event.mini_round == 1
        assert event.location == 2
        assert event.old_color is BLACK
        assert event.new_color == 7


class RecordingSpy(EventLog):
    """An event log that also keeps, as event objects, every batch the
    simulator records: the events the log must read back."""

    def __init__(self):
        super().__init__()
        self.recorded = []

    def record_drops(self, rnd, jobs):
        self.recorded += [DropEvent(rnd, 0, job) for job in jobs]
        super().record_drops(rnd, jobs)

    def record_arrivals(self, rnd, jobs):
        self.recorded += [ArrivalEvent(rnd, 0, job) for job in jobs]
        super().record_arrivals(rnd, jobs)

    def record_reconfigs(self, rnd, mini, changes):
        self.recorded += [ReconfigEvent(rnd, mini, *change) for change in changes]
        super().record_reconfigs(rnd, mini, changes)

    def record_executions(self, rnd, mini, executed):
        self.recorded += [ExecutionEvent(rnd, mini, loc, job) for loc, job in executed]
        super().record_executions(rnd, mini, executed)


def derived_instance():
    """The ``int`` palette's jobs, each replaced by a derived copy with a
    tuple color, so every job carries an ``origin``."""
    base = pinned_instance("int")
    jobs = [job.derived(color=(job.color, "d")) for job in base.sequence.jobs()]
    return Instance(RequestSequence(jobs, horizon=base.horizon), base.delta)


def same_events(read, recorded):
    assert [type(e) for e in read] == [type(e) for e in recorded]
    assert read == recorded
    assert [repr(e) for e in read] == [repr(e) for e in recorded]


class TestRoundTrip:
    """Events read back from a simulator's log equal the recorded ones."""

    @pytest.mark.parametrize("speed", [1, 2])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("palette", [*PALETTES, "derived"])
    def test_simulator_log_reads_back_what_it_recorded(self, palette, engine, speed):
        instance = (
            derived_instance() if palette == "derived" else pinned_instance(palette)
        )
        sim = make_simulator(
            instance,
            make_policy("dlru-edf", instance.delta),
            4,
            engine=engine,
            speed=speed,
        )
        sim.events = spy = RecordingSpy()
        marks = []
        for rnd in range(instance.horizon):
            marks.append(len(spy))
            sim.step(rnd)
            assert len(spy) == len(spy.recorded)
        recorded = spy.recorded
        assert {type(e) for e in recorded} == {
            ArrivalEvent, DropEvent, ReconfigEvent, ExecutionEvent,
        }
        if palette == "derived":
            assert all(e.job.origin is not None for e in recorded if hasattr(e, "job"))
        same_events(list(spy), recorded)
        for mark in marks:
            same_events(spy.since(mark), recorded[mark:])
        for view, cls in [
            (spy.arrivals, ArrivalEvent),
            (spy.drops, DropEvent),
            (spy.reconfigs, ReconfigEvent),
            (spy.executions, ExecutionEvent),
        ]:
            same_events(view(), [e for e in recorded if type(e) is cls])

    def test_mixed_equal_colors_keep_their_type(self):
        jobs = [Job(c, 0, 1, uid=i) for i, c in enumerate([1, 1.0, True, 0.0, -0.0])]
        log = EventLog()
        log.record_arrivals(0, jobs)
        log.record_reconfigs(0, 1, [(0, BLACK, 1.0), (1, True, -0.0)])
        log.record_executions(0, 1, [(1, jobs[4]), (0, jobs[1])])
        recorded = (
            [ArrivalEvent(0, 0, job) for job in jobs]
            + [ReconfigEvent(0, 1, 0, BLACK, 1.0), ReconfigEvent(0, 1, 1, True, -0.0)]
            + [ExecutionEvent(0, 1, 1, jobs[4]), ExecutionEvent(0, 1, 0, jobs[1])]
        )
        same_events(list(log), recorded)

    def test_append_and_extend_mix_with_batches(self):
        log = EventLog()
        a, b = J(1), J("x")
        log.record_drops(0, [a, b])
        log.append(ExecutionEvent(0, 0, 3, b))
        log.extend([ReconfigEvent(1, 0, 0, BLACK, 1), ArrivalEvent(1, 0, a)])
        log.record_arrivals(1, [b])
        recorded = [
            DropEvent(0, 0, a), DropEvent(0, 0, b), ExecutionEvent(0, 0, 3, b),
            ReconfigEvent(1, 0, 0, BLACK, 1), ArrivalEvent(1, 0, a),
            ArrivalEvent(1, 0, b),
        ]
        same_events(list(log), recorded)
        for mark in range(len(recorded) + 2):
            same_events(log.since(mark), recorded[mark:])

    def test_disabled_log_records_no_batch(self):
        log = EventLog(enabled=False)
        log.record_drops(0, [J()])
        log.record_arrivals(0, [J()])
        log.record_reconfigs(0, 0, [(0, BLACK, 0)])
        log.record_executions(0, 0, [(0, J())])
        assert len(log) == 0 and list(log) == [] and list(log.reprs()) == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_record_events_false_records_nothing(self, engine):
        instance = pinned_instance("int")
        sim = make_simulator(
            instance,
            make_policy("edf", instance.delta),
            4,
            engine=engine,
            speed=2,
            record_events=False,
        )
        result = sim.run()
        assert len(result.events) == 0 and list(result.events) == []
        assert result.executed_uids and result.dropped_uids

"""Unit tests for repro.core.events."""

from repro.core.events import (
    ArrivalEvent,
    DropEvent,
    EventLog,
    ExecutionEvent,
    ReconfigEvent,
)
from repro.core.job import BLACK, Job


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

"""Recorders: the narrow interface the engine layers talk to.

The engine (simulator, resource bank, pending store, policies, runner)
never imports the registry directly; it calls the three-method recorder
API — :meth:`count`, :meth:`gauge`, :meth:`observe` — on whatever
recorder is active, and guards every call site with the ``enabled``
attribute so a disabled run costs one attribute read per site.  A
recorder given a trace sink also holds a
:class:`~repro.telemetry.spans.SpanWriter` in ``spans``, onto which the
simulator writes its run trace.

:class:`NullRecorder` is the process default: every method is a no-op and
``enabled`` is False.  :class:`TelemetryRecorder` is the live one.  The
active recorder is process-local state (``set_recorder`` /
:func:`recording`); worker processes of the parallel runner each install
their own and ship snapshots home by value.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import IO, Iterator

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanWriter


class NullRecorder:
    """The off switch: records nothing, costs one attribute read to skip."""

    __slots__ = ()

    #: instrumentation sites check this before doing any work.
    enabled: bool = False
    #: the run-trace sink; None unless a live recorder was given one.
    spans: SpanWriter | None = None

    def count(self, name: str, value: int | float = 1, **labels: object) -> None:
        """Increment a counter (no-op here)."""

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge (no-op here)."""

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record a histogram observation (no-op here)."""

    def snapshot(self) -> dict:
        """Metrics snapshot (empty here)."""
        return {}

    def close(self) -> None:
        """Flush/close any trace destination (no-op here)."""


class Recorder(NullRecorder):
    """Alias base class for type hints: any recorder, null or live."""

    __slots__ = ()


class TelemetryRecorder(Recorder):
    """A live recorder: a metrics registry plus an optional span trace."""

    __slots__ = ("registry", "spans")

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        trace: str | IO[str] | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanWriter(trace) if trace is not None else None

    def count(self, name: str, value: int | float = 1, **labels: object) -> None:
        self.registry.count(name, value, **labels)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        self.registry.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.registry.observe(name, value, **labels)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def close(self) -> None:
        if self.spans is not None:
            self.spans.close()


#: the process-global active recorder; Null unless somebody opted in.
_active: Recorder = NullRecorder()


def get_recorder() -> Recorder:
    """The currently active recorder (a :class:`NullRecorder` by default)."""
    return _active


def set_recorder(recorder: Recorder | None) -> Recorder:
    """Install ``recorder`` (None restores the null default); returns the old one."""
    global _active
    previous = _active
    _active = recorder if recorder is not None else NullRecorder()
    return previous


@contextmanager
def recording(recorder: TelemetryRecorder | None = None) -> Iterator[TelemetryRecorder]:
    """Context manager: install a live recorder, restore the old one after.

    ``with recording() as rec: ...`` is the one-liner opt-in; on exit the
    previous recorder is reinstalled and the trace (if any) is closed.
    """
    rec = recorder if recorder is not None else TelemetryRecorder()
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)
        rec.close()

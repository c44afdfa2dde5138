"""The four-phase round engine.

Each round runs the paper's phases in order:

1. **drop** — every pending job with deadline equal to the current round is
   dropped at unit cost;
2. **arrival** — the round's request is delivered;
3. **reconfiguration** — the policy states its desired multiset of colors;
   the resource bank recolors the minimum number of locations at ``Delta``
   each;
4. **execution** — every location configured to color ``l`` executes the
   earliest-deadline pending job of ``l`` (if any).

``speed=2`` repeats phases 3 and 4 within each round (mini-rounds), which is
how the paper defines double-speed algorithms such as DS-Seq-EDF.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.events import EventLog
from repro.core.job import Color, Job
from repro.core.ledger import CostLedger
from repro.core.pending import PendingStore
from repro.core.request import Instance, Request, RequestSequence
from repro.core.resources import ResourceBank
from repro.core.schedule import Schedule
from repro.telemetry.recorder import Recorder, get_recorder


class Policy(ABC):
    """An online reconfiguration policy.

    The simulator owns job bookkeeping (pending pools, drops, execution);
    the policy only decides *which colors to configure*.  Hooks for the drop
    and arrival phases let policies maintain the paper's per-color state
    (counters, eligibility, timestamps) without duplicating the job store.
    """

    #: set by :meth:`bind`
    sim: "Simulator"

    def bind(self, sim: "Simulator") -> None:
        """Attach the policy to a simulator before the run starts."""
        self.sim = sim

    def on_drop_phase(self, rnd: int, dropped: Sequence[Job]) -> None:
        """Called after the drop phase of round ``rnd``."""

    def on_arrival_phase(self, rnd: int, request: Request) -> None:
        """Called after the request of round ``rnd`` is delivered."""

    @abstractmethod
    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        """Multiset of at most ``n`` colors to configure this mini-round."""

    def on_execution_phase(
        self, rnd: int, mini: int, executed: Sequence[tuple[int, Job]]
    ) -> None:
        """Called after the execution phase with ``(location, job)`` pairs."""


@dataclass
class SimulationResult:
    """Everything a run produces."""

    instance: Instance
    n: int
    speed: int
    ledger: CostLedger
    events: EventLog
    schedule: Schedule
    executed_uids: set[int]
    dropped_uids: set[int]
    policy: Policy
    #: the run's trace id when its recorder writes spans, else None.
    trace: str | None = None

    @property
    def total_cost(self) -> int:
        return self.ledger.total_cost

    @property
    def reconfig_cost(self) -> int:
        return self.ledger.reconfig_cost

    @property
    def drop_cost(self) -> int:
        return self.ledger.drop_cost


class Simulator:
    """Drives one policy over one instance.

    Parameters
    ----------
    instance:
        The request sequence and ``Delta``.
    policy:
        The online policy under test.
    n:
        Number of resources given to the policy.
    speed:
        Mini-rounds per round (1 or 2 in the paper; any positive value works).
    record_events:
        When False, skips the event log — used by the throughput
        benchmarks; the explicit schedule (cheap appends) and all costs are
        still recorded exactly.
    incremental:
        Engine selector.  True (default) runs the incremental hot path:
        index-diffed reconfiguration and an execution phase that only
        visits locations configured to nonidle colors.  False runs the
        historical full-scan reference engine.  Both engines are
        bit-identical (same ledger, events, and schedule); the reference
        engine is the oracle the incremental one is tested against.
    telemetry:
        A :class:`~repro.telemetry.Recorder`.  Defaults to the
        process-global recorder (a no-op ``NullRecorder`` unless telemetry
        was switched on).  Recorders only *observe* the run — enabling
        telemetry never changes the ledger, schedule, or event log.  A
        recorder's span writer gets one ``run`` tree per :meth:`run`.
    """

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        n: int,
        speed: int = 1,
        record_events: bool = True,
        incremental: bool = True,
        telemetry: Recorder | None = None,
    ):
        if speed < 1:
            raise ValueError(f"speed must be >= 1, got {speed}")
        self.instance = instance
        self.sequence: RequestSequence = instance.sequence
        self.delta = instance.delta
        self.policy = policy
        self.n = n
        self.speed = speed
        self.incremental = incremental
        self.telemetry = telemetry if telemetry is not None else get_recorder()
        self.bank = ResourceBank(
            n, incremental=incremental, telemetry=self.telemetry
        )
        self.pending = PendingStore(telemetry=self.telemetry)
        self.ledger = CostLedger(self.delta)
        self.events = EventLog(enabled=record_events)
        self.schedule = Schedule(n=n, speed=speed)
        self.executed_uids: set[int] = set()
        self.dropped_uids: set[int] = set()
        self.round = -1
        #: the last stepped round's dropped jobs (drop order), executed
        #: ``(location, job)`` pairs (every mini-round, execution order)
        #: and recolored-location count.  Replaced by each :meth:`step`;
        #: treat as read-only.
        self.last_dropped: list[Job] = []
        self.last_executed: list[tuple[int, Job]] = []
        self.last_recolored = 0
        #: the run trace's id, minted by the recorder's span writer.
        self._trace: str | None = None
        policy.bind(self)

    # -- state views for policies ------------------------------------------------

    def is_idle(self, color: Color) -> bool:
        return self.pending.idle(color)

    def earliest_deadline(self, color: Color) -> int | None:
        pool = self.pending.pool(color)
        return pool.earliest_deadline()

    def cached_colors(self):
        return self.bank.configured_colors()

    # -- the round loop ------------------------------------------------------------

    def run(self, horizon: int | None = None) -> SimulationResult:
        """Simulate rounds ``0 .. horizon-1`` (default: the sequence horizon)."""
        limit = self.sequence.horizon if horizon is None else horizon
        spans = self.telemetry.spans
        if spans is not None:
            self._trace = trace = spans.new_trace()
            spans.span(
                trace, "run", instance=self.instance.name, n=self.n,
                speed=self.speed, delta=self.delta,
                engine="incremental" if self.incremental else "reference",
                policy=type(self.policy).__name__, horizon=limit,
            )
        for rnd in range(limit):
            self.step(rnd)
        if spans is not None:
            spans.span(
                trace, "summary", parent=f"{trace}/run", **self.ledger.summary()
            )
        return SimulationResult(
            instance=self.instance,
            n=self.n,
            speed=self.speed,
            ledger=self.ledger,
            events=self.events,
            schedule=self.schedule,
            executed_uids=self.executed_uids,
            dropped_uids=self.dropped_uids,
            policy=self.policy,
            trace=self._trace,
        )

    def step(self, rnd: int) -> None:
        """Run one full round (all four phases, ``speed`` mini-rounds)."""
        if rnd != self.round + 1:
            raise ValueError(
                f"rounds must be stepped in order; expected {self.round + 1}, "
                f"got {rnd} (instance {self.instance.name!r}, "
                f"policy {type(self.policy).__name__})"
            )
        self.round = rnd
        telem = self.telemetry
        live = telem.enabled
        tick = time.perf_counter if live else None
        t0 = tick() if live else 0.0

        # Phase 1: drop, charged in bulk.
        dropped = self.pending.drop_expired(rnd)
        if dropped:
            self.ledger.charge_drops(rnd, [job.color for job in dropped])
            self.dropped_uids.update([job.uid for job in dropped])
            self.events.record_drops(rnd, dropped)
        self.policy.on_drop_phase(rnd, dropped)
        self.last_dropped = dropped
        t1 = tick() if live else 0.0

        # Phase 2: arrival.
        request = self.sequence.request(rnd)
        add = self.pending.add
        for job in request:
            add(job)
        self.events.record_arrivals(rnd, request)
        self.policy.on_arrival_phase(rnd, request)
        t2 = tick() if live else 0.0

        # Phases 3+4, repeated per mini-round.
        reconfig_s = execute_s = 0.0
        prev = t2
        round_executed: list[tuple[int, Job]] = []
        recolored = 0
        for mini in range(self.speed):
            desired = self.policy.desired_configuration(rnd, mini)
            changes = self.bank.reconfigure_to(desired, rnd, self.ledger)
            for loc, old, new in changes:
                self.schedule.add_reconfig(rnd, loc, new, mini)
            self.events.record_reconfigs(rnd, mini, changes)
            recolored += len(changes)
            if live:
                t3 = tick()
                reconfig_s += t3 - prev

            executed: list[tuple[int, Job]] = []
            if self.incremental:
                # Sparse execution: only locations configured to a color with
                # pending work can execute anything, and no job arrives
                # mid-phase, so idle-at-start colors stay idle — visiting the
                # merged ascending location lists of nonidle configured
                # colors yields exactly the executions of the full scan.
                locs: Iterable[int] = self.bank.nonblack_locations_of_any(
                    self.pending.nonidle_set()
                )
            else:
                locs = range(self.n)
            for loc in locs:
                color = self.bank.color_at(loc)
                job = self.pending.execute_one(color) if color is not None else None
                if job is not None:
                    executed.append((loc, job))
                    self.executed_uids.add(job.uid)
                    self.schedule.add_execution(rnd, loc, job.uid, mini)
            self.events.record_executions(rnd, mini, executed)
            self.policy.on_execution_phase(rnd, mini, executed)
            round_executed += executed
            if live:
                prev = tick()
                execute_s += prev - t3
        self.last_executed = round_executed
        self.last_recolored = recolored

        if live:
            num_execs = len(round_executed)
            pending_size = self.pending.pending_count()
            telem.count("repro_rounds_total")
            telem.count("repro_mini_rounds_total", self.speed)
            if dropped:
                telem.count("repro_drops_total", len(dropped))
            if len(request):
                telem.count("repro_arrivals_total", len(request))
            if num_execs:
                telem.count("repro_executions_total", num_execs)
            if recolored:
                telem.count("repro_reconfigs_total", recolored)
            telem.observe("repro_phase_seconds", t1 - t0, phase="drop")
            telem.observe("repro_phase_seconds", t2 - t1, phase="arrival")
            telem.observe("repro_phase_seconds", reconfig_s, phase="reconfig")
            telem.observe("repro_phase_seconds", execute_s, phase="execute")
            telem.gauge("repro_pending_jobs", pending_size)
            spans = telem.spans
            if spans is not None:
                if self._trace is None:
                    self._trace = spans.new_trace()
                trace = self._trace
                spans.span(
                    trace, "round", parent=f"{trace}/run",
                    span_id=f"{trace}/round/{rnd}", round=rnd,
                    mini_rounds=self.speed, arrivals=len(request),
                    executions=num_execs, recolored=recolored,
                    pending=pending_size, **self.ledger.round_delta(rnd),
                )


def simulate(
    instance: Instance,
    policy: Policy,
    n: int,
    speed: int = 1,
    record_events: bool = True,
    telemetry: Recorder | None = None,
    engine: str = "incremental",
) -> SimulationResult:
    """One-shot convenience wrapper around the engine registry.

    ``engine`` selects by name (``reference``/``incremental``/``auto``,
    see :mod:`repro.core.engine`).
    """
    from repro.core.engine import make_simulator

    return make_simulator(
        instance,
        policy,
        n,
        engine=engine,
        speed=speed,
        record_events=record_events,
        telemetry=telemetry,
    ).run()

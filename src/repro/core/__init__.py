"""Core model for reconfigurable resource scheduling.

This package implements the problem substrate of Plaxton, Sun, Tiwari and
Vin, *Reconfigurable Resource Scheduling with Variable Delay Bounds*
(IPPS 2007): unit jobs with per-color delay bounds, colored resources with a
fixed reconfiguration cost, the four-phase round structure (drop, arrival,
reconfiguration, execution), explicit schedules with an independent validity
checker, and the round-loop simulator that drives online policies.
"""

from repro.core.bdr import (
    BDRInterface,
    CompositionVerdict,
    check_composition,
    exact_fraction,
    half_half_partition,
)
from repro.core.job import Job, Color
from repro.core.request import Request, RequestSequence, Instance
from repro.core.ledger import CostLedger
from repro.core.digest import component_digests, result_digest, result_digests
from repro.core.live import LiveSequence, LiveSequenceError
from repro.core.resources import ResourceBank
from repro.core.pending import PendingPool, PendingStore
from repro.core.events import (
    Event,
    ArrivalEvent,
    DropEvent,
    ExecutionEvent,
    ReconfigEvent,
    EventLog,
)
from repro.core.schedule import Schedule, ScheduleError, validate_schedule
from repro.core.simulator import Simulator, SimulationResult, Policy
from repro.core.engine import ENGINES, engine_of, make_simulator, resolve_engine
from repro.core.notation import (
    BatchField,
    ProblemClass,
    classify,
    parse,
    recommended_solver,
)

__all__ = [
    "BDRInterface",
    "CompositionVerdict",
    "check_composition",
    "exact_fraction",
    "half_half_partition",
    "Job",
    "Color",
    "Request",
    "RequestSequence",
    "Instance",
    "CostLedger",
    "LiveSequence",
    "LiveSequenceError",
    "component_digests",
    "result_digest",
    "result_digests",
    "ResourceBank",
    "PendingPool",
    "PendingStore",
    "Event",
    "ArrivalEvent",
    "DropEvent",
    "ExecutionEvent",
    "ReconfigEvent",
    "EventLog",
    "Schedule",
    "ScheduleError",
    "validate_schedule",
    "Simulator",
    "SimulationResult",
    "Policy",
    "ENGINES",
    "engine_of",
    "make_simulator",
    "resolve_engine",
    "BatchField",
    "ProblemClass",
    "classify",
    "parse",
    "recommended_solver",
]

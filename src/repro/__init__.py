"""repro — Reconfigurable Resource Scheduling with Variable Delay Bounds.

A faithful, executable reproduction of Plaxton, Sun, Tiwari and Vin
(IPPS 2007): the four-phase scheduling model, the DeltaLRU / EDF /
DeltaLRU-EDF online algorithms, the Distribute and VarBatch reductions, the
offline machinery used in the analysis (Par-EDF, Seq-EDF, Aggregate,
punctualization, exact optima and lower bounds), seeded workload generators
including both appendix adversaries, and the experiment suite (E1–E11,
E13, E14 and the A1–A5 ablations).

Quickstart::

    from repro import solve_online
    from repro.workloads import poisson_workload

    instance = poisson_workload(num_colors=8, horizon=512, delta=4, seed=7)
    result = solve_online(instance, n=16)
    print(result.ledger.summary())
"""

from repro.core import (
    CostLedger,
    Instance,
    Job,
    Request,
    RequestSequence,
    Schedule,
    ScheduleError,
    SimulationResult,
    Simulator,
    validate_schedule,
)
from repro.core.simulator import simulate
from repro.policies import (
    ClassicLRUPolicy,
    DeltaLRUEDFPolicy,
    DeltaLRUPolicy,
    EDFPolicy,
    GreedyUtilizationPolicy,
    SeqEDFPolicy,
    StaticPartitionPolicy,
    par_edf_run,
)
from repro.reductions import (
    distribute_sequence,
    solve_batched,
    solve_online,
    solve_rate_limited,
    varbatch_sequence,
)

__version__ = "1.0.0"

__all__ = [
    "CostLedger",
    "Instance",
    "Job",
    "Request",
    "RequestSequence",
    "Schedule",
    "ScheduleError",
    "SimulationResult",
    "Simulator",
    "simulate",
    "validate_schedule",
    "ClassicLRUPolicy",
    "DeltaLRUEDFPolicy",
    "DeltaLRUPolicy",
    "EDFPolicy",
    "GreedyUtilizationPolicy",
    "SeqEDFPolicy",
    "StaticPartitionPolicy",
    "par_edf_run",
    "distribute_sequence",
    "varbatch_sequence",
    "solve_rate_limited",
    "solve_batched",
    "solve_online",
    "__version__",
]

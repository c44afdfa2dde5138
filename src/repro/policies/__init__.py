"""Online scheduling policies.

- :mod:`repro.policies.state` — the per-color bookkeeping shared by all
  Section-3 algorithms (counters, deadlines, eligibility, counter-wrapping
  events and LRU timestamps);
- :mod:`repro.policies.ranking` — the paper's exact ranking of eligible
  colors and of pending jobs;
- :mod:`repro.policies.dlru` — algorithm DeltaLRU (Section 3.1.1);
- :mod:`repro.policies.edf` — algorithm EDF (Section 3.1.2), which also
  yields Seq-EDF and double-speed Seq-EDF (Section 3.3);
- :mod:`repro.policies.dlru_edf` — algorithm DeltaLRU-EDF (Section 3.1.3),
  the paper's resource-competitive combination;
- :mod:`repro.policies.par_edf` — the Par-EDF drop-cost oracle (Section 3.3);
- :mod:`repro.policies.baselines` — static partition, classic LRU and a
  greedy utilization policy used as experiment baselines.
"""

from repro.policies.state import ColorState, SectionThreeState
from repro.policies.ranking import eligible_color_rank_key, job_rank_key
from repro.policies.dlru import DeltaLRUPolicy
from repro.policies.edf import EDFPolicy, SeqEDFPolicy
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.par_edf import par_edf_run, ParEDFResult
from repro.policies.baselines import (
    StaticPartitionPolicy,
    ClassicLRUPolicy,
    GreedyUtilizationPolicy,
)
from repro.policies.direct import DirectLRUEDFPolicy

#: named constructors shared by the CLI and the serve layer.  Each factory
#: takes ``delta``; baselines ignore it.  A policy runs the reference or the
#: incremental path of the simulator it is bound to.
POLICY_FACTORIES = {
    "dlru": DeltaLRUPolicy,
    "edf": EDFPolicy,
    "dlru-edf": DeltaLRUEDFPolicy,
    "static": lambda delta: StaticPartitionPolicy(),
    "classic-lru": lambda delta: ClassicLRUPolicy(),
    "greedy": lambda delta: GreedyUtilizationPolicy(),
}


def make_policy(name: str, delta: int | float):
    """Construct the named policy for one run (policies are single-use)."""
    try:
        factory = POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICY_FACTORIES)}"
        ) from None
    return factory(delta)


__all__ = [
    "ColorState",
    "SectionThreeState",
    "eligible_color_rank_key",
    "job_rank_key",
    "DeltaLRUPolicy",
    "EDFPolicy",
    "SeqEDFPolicy",
    "DeltaLRUEDFPolicy",
    "par_edf_run",
    "ParEDFResult",
    "StaticPartitionPolicy",
    "ClassicLRUPolicy",
    "GreedyUtilizationPolicy",
    "DirectLRUEDFPolicy",
    "POLICY_FACTORIES",
    "make_policy",
]

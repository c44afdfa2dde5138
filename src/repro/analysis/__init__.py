"""Analysis instrumentation.

- :mod:`repro.analysis.metrics` — cost breakdowns and derived statistics of
  simulation results;
- :mod:`repro.analysis.epochs` — the epoch / super-epoch accounting of
  Sections 3.2 and 3.4, used to verify Lemmas 3.3, 3.4, 3.15, 3.16
  empirically;
- :mod:`repro.analysis.competitive` — empirical competitive-ratio
  measurement against the exact optimum or the lower/upper bound bracket;
- :mod:`repro.analysis.reporting` — plain-text table rendering for the
  experiment suite;
- :mod:`repro.analysis.series` — per-round cost series (numpy), imported
  on first use of one of its names.
"""

from repro.analysis.metrics import RunMetrics, collect_metrics
from repro.analysis.epochs import EpochReport, epoch_report, max_epoch_overlap, super_epochs
from repro.analysis.competitive import (
    RatioBracket,
    empirical_ratio_exact,
    empirical_ratio_bracket,
)
from repro.analysis.attribution import ColorCosts, attribute_costs, attribution_table
from repro.analysis.compare import Comparison, compare_policies, standard_policy_set
from repro.analysis.reporting import Table
from repro.analysis.timeline import TimelineStats, render_timeline, timeline_stats
from repro.analysis.verify import VerificationReport, verify_run

__all__ = [
    "Comparison",
    "compare_policies",
    "standard_policy_set",
    "ColorCosts",
    "attribute_costs",
    "attribution_table",
    "CostSeries",
    "cost_series",
    "offline_floor_series",
    "sparkline",
    "TimelineStats",
    "render_timeline",
    "timeline_stats",
    "VerificationReport",
    "verify_run",
    "RunMetrics",
    "collect_metrics",
    "EpochReport",
    "epoch_report",
    "max_epoch_overlap",
    "super_epochs",
    "RatioBracket",
    "empirical_ratio_exact",
    "empirical_ratio_bracket",
    "Table",
]

#: names of :mod:`repro.analysis.series`, which imports numpy: loaded on
#: first use, so ``repro top`` and ``repro metrics`` (which import
#: :mod:`repro.analysis.reporting`) never pay for numpy.
_SERIES = frozenset({"CostSeries", "cost_series", "offline_floor_series", "sparkline"})


def __getattr__(name: str):
    if name in _SERIES:
        from repro.analysis import series

        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

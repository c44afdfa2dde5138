"""Algorithm DeltaLRU (Section 3.1.1).

Reconfiguration scheme: keep the ``n/2`` eligible colors with the most
recent timestamps in the cache (each cached in two locations per the common
replication invariant), breaking ties by the consistent color order.

The timestamp of a color only advances once a full delay bound has elapsed
after a counter-wrapping event, so a color with a deadline far in the future
is not cached too aggressively.  Appendix A shows this policy is *not*
resource competitive: it keeps idle recently-stamped colors cached and
underutilizes the resources (experiment E1 reproduces the construction).

The default engine maintains the LRU order incrementally: a color's
timestamp only changes at its delay-bound boundaries (wraps are recorded
there too), and those rounds are exactly the ones the state hooks report as
touched, so re-keying the touched colors keeps the maintained order equal
to a full re-sort.  On the reference engine the policy keeps the
historical per-round re-sort; both paths are bit-identical.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.job import Color, Job
from repro.core.request import Request
from repro.core.simulator import Policy
from repro.policies.ranking import MaintainedRanking, lru_key_of
from repro.policies.state import SectionThreeState


class DeltaLRUPolicy(Policy):
    """DeltaLRU with ``n`` resources (``n`` even; replication always on)."""

    def __init__(self, delta: int, track_history: bool = False):
        self.state = SectionThreeState(delta, track_history=track_history)
        self._ranking = MaintainedRanking()
        self._dirty: set[Color] = set()
        self._desired_cache: list[Color] | None = None

    def bind(self, sim) -> None:
        super().bind(sim)
        if sim.n % 2 != 0:
            raise ValueError(f"DeltaLRU requires an even number of resources, got {sim.n}")
        self.incremental = sim.incremental
        self.capacity = sim.n // 2
        self._ranking.clear()
        self._dirty = set(self.state.states)
        self._desired_cache = None

    # -- phase hooks ------------------------------------------------------------

    def on_drop_phase(self, rnd: int, dropped: Sequence[Job]) -> None:
        self._dirty |= self.state.on_drop_phase(
            rnd, dropped, cached=self.sim.bank.is_configured
        )

    def on_arrival_phase(self, rnd: int, request: Request) -> None:
        self._dirty |= self.state.on_arrival_phase(rnd, request)

    # -- reconfiguration ----------------------------------------------------------

    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        if self.incremental:
            telem = self.sim.telemetry
            if not self._dirty:
                if self._desired_cache is not None:
                    # Timestamps only move at delay-bound boundaries, which
                    # always land in the dirty set — no delta, same list.
                    if telem.enabled:
                        telem.count(
                            "repro_desired_cache_hits_total", policy="dlru"
                        )
                    return self._desired_cache
            else:
                if telem.enabled:
                    telem.count(
                        "repro_desired_cache_misses_total", policy="dlru"
                    )
                    telem.observe(
                        "repro_ranking_dirty_size",
                        len(self._dirty),
                        policy="dlru",
                    )
                states = self.state.states
                updates: list[tuple[Color, tuple]] = []
                removals: list[Color] = []
                for color in self._dirty:
                    st = states[color]
                    if st.eligible:
                        updates.append((color, lru_key_of(st, rnd)))
                    else:
                        removals.append(color)
                self._ranking.apply(updates, removals)
                self._dirty = set()
            chosen = self._ranking.top(self.capacity)
        else:
            chosen = self.state.lru_order(rnd)[: self.capacity]
        # Replication invariant: each cached color occupies two locations.
        desired: list[Color] = []
        for color in chosen:
            desired.extend((color, color))
        if self.incremental:
            self._desired_cache = desired
        return desired

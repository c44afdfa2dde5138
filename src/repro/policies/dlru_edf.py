"""Algorithm DeltaLRU-EDF (Section 3.1.3) — the paper's core contribution.

The reconfiguration scheme keeps two sets of colors configured:

1. **LRU set** — the ``n/4`` eligible colors with the most recent
   timestamps (the DeltaLRU scheme run on a quarter of the capacity).
   These are the *LRU-colors*; a color is an LRU-color exactly while it is
   cached by this step.
2. **EDF set** — among the eligible non-LRU colors ranked by the EDF scheme
   (nonidle first, ascending deadline, ascending delay bound, color order),
   every *nonidle* color in the top ``n/4`` rankings that is not already
   cached is brought in; when the ``n/2`` distinct-color capacity is
   exceeded, the non-LRU cached color with the lowest rank is evicted.
   This set is stateful, like EDF's cache.

Every cached color is replicated in two locations (common invariant), so the
``n`` resources hold at most ``n/2`` distinct colors.

Theorem 1: this policy is resource competitive for rate-limited
``[Delta | 1 | D_l | D_l]`` with power-of-two delay bounds when given
``n = 8m`` resources.  The intuition: the LRU half prevents thrashing (a
recently-busy color stays cached through idle gaps), the EDF half prevents
underutilization (urgent nonidle work is always configured).

The default engine maintains both rankings (LRU order and EDF order over
the eligible colors) incrementally from the per-round deltas — boundary
crossings, wraps and eligibility flips reported by the state hooks, plus
idleness flips from the pending store's feed — instead of re-sorting every
round.  It only marks the changed colors; the rankings key and sort them
in when the decision reads an order.  While the eligible colors fit in the
LRU share, the LRU set is the rankings' membership and the EDF walk is not
run (it would skip every color), so no key is built at all; and when the
membership is unchanged since the last emitted list, that list is
returned without rebuilding the LRU set.  When the LRU and EDF sets equal
the last emitted ones, the last emitted list itself is returned, which the
resource bank takes as a no-op by identity.  On the reference engine the
policy keeps the historical re-sort path; the two are bit-identical
(enforced by the property and engine-equivalence suites).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.core.bdr import exact_fraction
from repro.core.job import Color, Job, color_sort_key
from repro.core.request import Request
from repro.core.simulator import Policy
from repro.policies.ranking import (
    MaintainedRanking,
    edf_rank_key,
    eligible_color_rank_key,
    lru_rank_key,
)
from repro.policies.state import SectionThreeState


class DeltaLRUEDFPolicy(Policy):
    """DeltaLRU-EDF with ``n`` resources (``n % 4 == 0``).

    Parameters
    ----------
    delta:
        The reconfiguration cost (drives the counter-wrapping machinery).
    lru_fraction:
        Fraction of the *distinct-color capacity* reserved for the LRU set.
        The paper uses 1/2 (i.e. ``n/4`` of ``n/2``); the ablation benchmark
        A1 sweeps this.  Accepts a float, :class:`~fractions.Fraction`,
        string, or int; the split is computed with exact arithmetic, a
        float through its decimal literal, so ``0.7`` of 10 slots is 7,
        not the ``int(10 * 0.7) == 6`` of binary rounding.
    replication:
        The paper caches every color twice.  Ablation A2 turns this off
        (capacity becomes ``n`` distinct colors, split by ``lru_fraction``).
    track_history:
        Keep full wrap-event history for the super-epoch analysis.

    The policy maintains its rankings from per-round deltas on the
    incremental engine and re-sorts every round on the reference engine
    (bit-identical results); :meth:`bind` reads the engine.
    """

    def __init__(
        self,
        delta: int,
        lru_fraction: float | Fraction | str = 0.5,
        replication: bool = True,
        track_history: bool = False,
    ):
        self._lru_share = exact_fraction(lru_fraction)
        if not (0 <= self._lru_share <= 1):
            raise ValueError(f"lru_fraction must be in [0, 1], got {lru_fraction}")
        self.state = SectionThreeState(delta, track_history=track_history)
        self.lru_fraction = lru_fraction
        self.replication = replication
        #: colors currently held by the (stateful) EDF part of the cache.
        self.edf_cached: set[Color] = set()
        #: colors currently held by the LRU part (recomputed when it can change).
        self.lru_set: set[Color] = set()
        self._dirty: set[Color] = set()
        self._desired_cache: list[Color] | None = None
        #: the LRU and EDF sets ``_desired_cache`` was emitted from, and the
        #: LRU ranking's membership version when it was last confirmed.
        self._emitted_lru: set[Color] = set()
        self._emitted_edf: set[Color] = set()
        self._emitted_version = -1

    def bind(self, sim) -> None:
        super().bind(sim)
        if self.replication:
            if sim.n % 4 != 0:
                raise ValueError(
                    f"DeltaLRU-EDF requires n divisible by 4, got {sim.n}"
                )
            distinct = sim.n // 2
        else:
            if sim.n % 2 != 0:
                raise ValueError(
                    f"DeltaLRU-EDF without replication requires even n, got {sim.n}"
                )
            distinct = sim.n
        self.distinct_capacity = distinct
        # Exact split: floor(distinct * share) without a detour through
        # binary floating point.
        self.lru_capacity = int(distinct * self._lru_share)
        self.edf_top = distinct - self.lru_capacity
        self.incremental = sim.incremental
        self._lru_ranking = MaintainedRanking(lru_rank_key(self.state))
        self._edf_ranking = MaintainedRanking(
            edf_rank_key(self.state, sim.pending.idle)
        )
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

    def _mark_changes(self, rnd: int, flips: set[Color]) -> None:
        """Mark the accumulated per-round deltas in both rankings.

        ``flips`` are idleness changes: they re-key only the EDF ranking
        (the LRU key does not mention idleness), while state-hook deltas
        (``self._dirty``) re-key both.  No key is computed here.
        """
        dirty = self._dirty
        states = self.state.states
        marked: list[Color] = []
        removed: list[Color] = []
        for color in dirty:
            st = states.get(color)
            if st is not None:
                (marked if st.eligible else removed).append(color)
        for ranking in (self._lru_ranking, self._edf_ranking):
            ranking.remove(removed)
            ranking.mark(rnd, marked)
        self._edf_ranking.mark(
            rnd,
            [c for c in flips - dirty if c in states and states[c].eligible],
        )
        self._dirty = set()

    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        if not self.incremental:
            return self._desired_resort(rnd)
        flips = self.sim.pending.take_idle_flips()
        telem = self.sim.telemetry
        if not flips and not self._dirty:
            if self._desired_cache is not None:
                # No ranking input moved (LRU timestamps only change at
                # boundary rounds, which are always dirty), so the walk
                # below would rebuild the exact same list.
                if telem.enabled:
                    telem.count(
                        "repro_desired_cache_hits_total", policy="dlru_edf"
                    )
                return self._desired_cache
        else:
            if telem.enabled:
                telem.count(
                    "repro_desired_cache_misses_total", policy="dlru_edf"
                )
                telem.observe(
                    "repro_ranking_dirty_size",
                    len(self._dirty | flips),
                    policy="dlru_edf",
                )
            self._mark_changes(rnd, flips)

        # Step 1: the DeltaLRU scheme on the LRU share of the capacity.  Both
        # rankings hold exactly the eligible colors; when they all fit in
        # the LRU share, membership alone is the LRU set, every eligible
        # color is in it and the EDF part is empty.  Unchanged membership
        # since the last confirmed list then means the same two sets.
        lru = self._lru_ranking
        fits = len(lru) <= self.lru_capacity
        if (
            fits
            and lru.version == self._emitted_version
            and not self.edf_cached
            and self._desired_cache is not None
        ):
            return self._desired_cache
        if fits:
            lru_set = set(lru.members())
        else:
            lru_set = set(lru.top(self.lru_capacity))
        self.lru_set = lru_set

        # A color absorbed by the LRU set is an LRU-color; it no longer
        # occupies an EDF slot.  Colors that left the LRU set are only cached
        # if the EDF part (re-)holds them.
        edf_cached = self.edf_cached
        edf_cached -= lru_set
        # Eligibility pruning: an uncached color may have turned ineligible
        # at a boundary; it can no longer be ranked.
        states = self.state.states
        if edf_cached:
            stale = [c for c in edf_cached if not states[c].eligible]
            for color in stale:
                edf_cached.discard(color)

        # Step 2: the EDF scheme over eligible non-LRU colors — walk the
        # maintained order, skipping LRU-colors, down to the top ``edf_top``
        # non-LRU rankings.  The LRU set is a subset of the ranked colors,
        # so when it holds all of them the walk would skip every color.
        if len(self._edf_ranking) > len(lru_set):
            is_idle = self.sim.is_idle
            rank = 0
            for color in self._edf_ranking.ordered():
                if color in lru_set:
                    continue
                rank += 1
                if rank > self.edf_top:
                    break
                if color not in edf_cached and not is_idle(color):
                    edf_cached.add(color)

        # Evict lowest-ranked non-LRU colors while over distinct capacity.
        overflow = len(lru_set) + len(edf_cached) - self.distinct_capacity
        if overflow > 0:
            for color in reversed(self._edf_ranking.ordered()):
                if overflow == 0:
                    break
                if color in edf_cached:
                    edf_cached.discard(color)
                    overflow -= 1

        # The emitted list is a function of the two sets alone: when both
        # equal the last emitted ones, hand back that very list, which the
        # bank recognises by identity as already satisfied.
        self._emitted_version = lru.version
        desired = self._desired_cache
        if (
            desired is not None
            and lru_set == self._emitted_lru
            and edf_cached == self._emitted_edf
        ):
            return desired
        self._emitted_lru = lru_set
        self._emitted_edf = set(edf_cached)
        self._desired_cache = desired = self._emit(
            lru_set, edf_cached, self.state.csk
        )
        return desired

    def _desired_resort(self, rnd: int) -> list[Color]:
        """Reference path: the historical full re-sort every round."""
        self.lru_set = set(self.state.lru_order(rnd)[: self.lru_capacity])

        self.edf_cached -= self.lru_set
        self.edf_cached = {
            c for c in self.edf_cached if self.state.states[c].eligible
        }

        key = eligible_color_rank_key(self.state, self.sim.is_idle)
        non_lru_eligible = [
            c for c in self.state.eligible_colors() if c not in self.lru_set
        ]
        ranked = sorted(non_lru_eligible, key=key)
        in_cache = self.lru_set | self.edf_cached
        for color in ranked[: self.edf_top]:
            if color not in in_cache and not self.sim.is_idle(color):
                self.edf_cached.add(color)

        overflow = len(self.lru_set) + len(self.edf_cached) - self.distinct_capacity
        if overflow > 0:
            by_rank = sorted(self.edf_cached, key=key)
            for color in reversed(by_rank):
                if overflow == 0:
                    break
                self.edf_cached.discard(color)
                overflow -= 1

        return self._emit(self.lru_set, self.edf_cached)

    def _emit(self, lru_set: set[Color], edf_cached: set[Color], key=color_sort_key) -> list[Color]:
        # Emit both halves in the consistent color order: iterating the raw
        # sets here would leak PYTHONHASHSEED into the desired-multiset order
        # and therefore into location assignment, events, and schedules.
        # ``key`` lets the incremental engine sort by the states' memoized
        # keys; the order is identical.
        chosen = sorted(lru_set, key=key) + sorted(edf_cached, key=key)
        if self.replication:
            desired: list[Color] = []
            for color in chosen:
                desired.extend((color, color))
            return desired
        return chosen

    # -- instrumentation --------------------------------------------------------

    @property
    def num_epochs(self) -> int:
        return self.state.num_epochs

    @property
    def ineligible_drops(self) -> int:
        return self.state.total_ineligible_drops

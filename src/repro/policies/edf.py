"""Algorithm EDF (Section 3.1.2) and Seq-EDF / DS-Seq-EDF (Section 3.3).

Reconfiguration scheme of EDF: rank the eligible colors first on idleness
(nonidle first), then ascending deadlines, ties by increasing delay bound,
then the consistent color order.  Any nonidle eligible color in the top
``capacity`` rankings that is not cached is brought in; when the cache is
over capacity, the cached color with the lowest rank is evicted.  Note the
cache is *stateful*: colors stay cached until evicted for room.

With the common replication invariant (each cached color in two locations)
the distinct capacity is ``n/2`` — this is the paper's algorithm EDF.
Seq-EDF is the same scheme with all ``m`` locations used for distinct colors
(no replication); DS-Seq-EDF is Seq-EDF run at ``speed=2``.

The default engine keeps the ranking as a :class:`MaintainedRanking`
updated from the per-round deltas (boundary crossings, wraps, eligibility
flips from the state hooks; idleness flips from the pending store's feed)
instead of re-sorting every eligible color each round.  On the reference
engine the policy runs the historical full re-sort — both paths are
bit-identical, which the property and engine-equivalence suites enforce.

Appendix B shows EDF thrashes (reconfigures every time a short-delay color
alternates between idle and nonidle) and is not resource competitive;
experiment E2 reproduces the construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.job import Color, Job, color_sort_key
from repro.core.request import Request
from repro.core.simulator import Policy
from repro.policies.ranking import (
    MaintainedRanking,
    edf_key_of,
    eligible_color_rank_key,
)
from repro.policies.state import SectionThreeState


class EDFPolicy(Policy):
    """The paper's EDF (replicated) or Seq-EDF (``replication=False``)."""

    def __init__(
        self,
        delta: int,
        replication: bool = True,
        track_history: bool = False,
        gate_eligibility: bool = True,
    ):
        self.state = SectionThreeState(
            delta, track_history=track_history, gate_eligibility=gate_eligibility
        )
        self.replication = replication
        self.cached: set[Color] = set()
        self._ranking = MaintainedRanking()
        self._dirty: set[Color] = set()
        self._desired_cache: list[Color] | None = None
        #: memoized sort keys of every ranked color (C-level emission sort).
        self._csk: dict[Color, tuple] = {}

    def bind(self, sim) -> None:
        super().bind(sim)
        if self.replication:
            if sim.n % 2 != 0:
                raise ValueError(f"EDF with replication requires even n, got {sim.n}")
            self.capacity = sim.n // 2
        else:
            self.capacity = sim.n
        self.incremental = sim.incremental
        # Rebinding to a fresh simulator invalidates the maintained order
        # (idleness lives in the simulator's pending store): rebuild lazily
        # from every known color.
        self._ranking.clear()
        self._dirty = set(self.state.states)
        self._desired_cache = None

    # -- phase hooks ------------------------------------------------------------

    def on_drop_phase(self, rnd: int, dropped: Sequence[Job]) -> None:
        gone = self.state.on_drop_phase(
            rnd, dropped, cached=self.sim.bank.is_configured
        )
        # A color evicted earlier that has now become ineligible can never be
        # ranked again; keep the cached set consistent with eligibility (a
        # cached color is never made ineligible by the rule, so this only
        # removes colors whose cache membership was already stale).
        if gone and self.cached:
            self.cached = {c for c in self.cached if self.state.states[c].eligible}
        self._dirty |= gone

    def on_arrival_phase(self, rnd: int, request: Request) -> None:
        self._dirty |= self.state.on_arrival_phase(rnd, request)

    # -- reconfiguration ----------------------------------------------------------

    def _refresh_ranking(self) -> None:
        """Fold the accumulated deltas into the maintained ranking."""
        dirty = self._dirty
        if not dirty:
            return
        states = self.state.states
        idle = self.sim.pending.idle
        updates: list[tuple[Color, tuple]] = []
        removals: list[Color] = []
        csk_map = self._csk
        for color in dirty:
            st = states.get(color)
            if st is None:
                continue
            if st.eligible:
                csk_map[color] = st.csk
                updates.append((color, edf_key_of(st, idle(color))))
            else:
                removals.append(color)
        self._ranking.apply(updates, removals)
        self._dirty = set()

    def desired_configuration(self, rnd: int, mini: int) -> Iterable[Color]:
        if not self.incremental:
            return self._desired_resort()
        self._dirty |= self.sim.pending.take_idle_flips()
        telem = self.sim.telemetry
        if not self._dirty and self._desired_cache is not None:
            # Every ranking input (keys, eligibility, idleness) is unchanged
            # since the cached list was computed, so the walk below would
            # reproduce it exactly.
            if telem.enabled:
                telem.count("repro_desired_cache_hits_total", policy="edf")
            return self._desired_cache
        if telem.enabled:
            telem.count("repro_desired_cache_misses_total", policy="edf")
            telem.observe(
                "repro_ranking_dirty_size", len(self._dirty), policy="edf"
            )
        self._refresh_ranking()
        cached = self.cached
        is_idle = self.sim.is_idle
        for color in self._ranking.top(self.capacity):
            if color not in cached and not is_idle(color):
                cached.add(color)
        if len(cached) > self.capacity:
            # Keep the best-ranked ``capacity`` cached colors: walk the
            # maintained order filtering on membership (every cached color is
            # eligible, hence ranked).
            kept: set[Color] = set()
            for color in self._ranking.ordered():
                if color in cached:
                    kept.add(color)
                    if len(kept) == self.capacity:
                        break
            self.cached = cached = kept
        self._desired_cache = desired = self._emit(cached, self._csk.__getitem__)
        return desired

    def _desired_resort(self) -> list[Color]:
        """Reference path: the historical full re-sort every round."""
        key = eligible_color_rank_key(self.state, self.sim.is_idle)
        ranked = sorted(self.state.eligible_colors(), key=key)
        for color in ranked[: self.capacity]:
            if color not in self.cached and not self.sim.is_idle(color):
                self.cached.add(color)
        if len(self.cached) > self.capacity:
            by_rank = sorted(self.cached, key=key)
            self.cached = set(by_rank[: self.capacity])
        return self._emit(self.cached)

    def _emit(self, cached: set[Color], key=color_sort_key) -> list[Color]:
        # Emit in the consistent color order: iterating the raw set here
        # would leak PYTHONHASHSEED into the desired-multiset order and so
        # into location assignment, events, and schedules.  ``key`` lets the
        # incremental engine substitute its memoized per-color keys.
        ordered = sorted(cached, key=key)
        if self.replication:
            desired: list[Color] = []
            for color in ordered:
                desired.extend((color, color))
            return desired
        return ordered


class SeqEDFPolicy(EDFPolicy):
    """Seq-EDF: EDF with all locations holding distinct colors.

    Run at ``speed=2`` in the simulator to obtain DS-Seq-EDF.  By default the
    eligibility gate is *off* (the Section 3.3 analysis variant, which
    executes every color — Lemma 3.8 constructs drop-free schedules for nice
    inputs, which requires ungated execution); pass ``gate_eligibility=True``
    for the gated flavour.
    """

    def __init__(
        self,
        delta: int,
        track_history: bool = False,
        gate_eligibility: bool = False,
    ):
        super().__init__(
            delta,
            replication=False,
            track_history=track_history,
            gate_eligibility=gate_eligibility,
        )

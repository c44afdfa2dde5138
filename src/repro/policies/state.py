"""Per-color state for the Section-3 algorithms.

DeltaLRU, EDF and DeltaLRU-EDF share the drop-phase and arrival-phase
bookkeeping of Section 3.1 ("common aspects"): for every color ``l`` they
maintain a counter ``l.cnt``, a deadline ``l.dd``, an eligibility bit, and —
for the LRU side — the rounds of *counter wrapping events* from which the
LRU timestamp is derived.

The rules, verbatim from the paper, for each round ``k``:

- **Drop phase.** If ``k`` is a multiple of ``D_l``: all pending ``l`` jobs
  are dropped (the simulator already does this — with batched arrivals every
  pending ``l`` job's deadline is exactly ``k``); if ``l`` is *eligible and
  not in the cache*, it becomes ineligible and ``l.cnt`` resets to zero.
- **Arrival phase.** If ``k`` is a multiple of ``D_l``: ``l.dd`` becomes
  ``k + D_l``; ``l.cnt`` grows by the number of arriving ``l`` jobs; if
  ``l.cnt >= Delta`` it wraps (``l.cnt mod Delta``) — a *counter wrapping
  event* — and ``l`` becomes eligible if it was not.

The *timestamp* of ``l`` at a query round ``r`` (Section 3.1.1) is the index
of the latest round strictly before the most recent multiple of ``D_l`` in
which a counter wrapping event of ``l`` occurred, and 0 if none exists.
Because wraps only happen at multiples of ``D_l``, the two most recent wrap
rounds determine every timestamp query; the full wrap history is kept only
when ``track_history`` is set (used by the super-epoch analysis).

Epoch accounting (Section 3.2) is tracked here as well: an epoch of ``l``
ends the moment ``l`` becomes ineligible; ``num_epochs`` counts completed
plus in-progress epochs of colors that have ever received a job — exactly
the ``numEpochs(sigma)`` of Lemmas 3.3/3.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.job import Color, Job, color_sort_key
from repro.core.request import Request


@dataclass
class ColorState:
    """Mutable Section-3 bookkeeping for one color."""

    color: Color
    delay_bound: int
    #: creation order among all states (first-seen order of colors); used to
    #: keep multi-wrap rounds in the historical event order.
    index: int = 0
    #: memoized ``color_sort_key(color)`` — rank keys embed it every round.
    csk: tuple = ()
    cnt: int = 0
    dd: int = 0
    eligible: bool = False
    #: two most recent counter-wrap rounds (latest last); None if fewer.
    last_wrap: int | None = None
    prev_wrap: int | None = None
    #: full wrap history, only when the owner tracks history.
    wrap_history: list[int] | None = None
    #: number of completed epochs (eligible -> ineligible transitions).
    epochs_completed: int = 0
    #: rounds at which epochs ended, only when the owner tracks history.
    epoch_ends: list[int] | None = None
    #: True once the color has ever received a job (its epoch 0 is live).
    seen: bool = False
    #: total jobs dropped while the color was ineligible (Lemma 3.4 metric).
    ineligible_drops: int = 0
    #: uids of those jobs (defines the *eligible subsequence* of Lemma 3.2).
    ineligible_drop_uids: set[int] = field(default_factory=set)

    def timestamp(self, rnd: int) -> int:
        """LRU timestamp at (the reconfiguration phase of) round ``rnd``."""
        boundary = (rnd // self.delay_bound) * self.delay_bound
        if self.last_wrap is not None and self.last_wrap < boundary:
            return self.last_wrap
        if self.prev_wrap is not None and self.prev_wrap < boundary:
            return self.prev_wrap
        return 0

    def record_wrap(self, rnd: int) -> None:
        self.prev_wrap = self.last_wrap
        self.last_wrap = rnd
        if self.wrap_history is not None:
            self.wrap_history.append(rnd)


class SectionThreeState:
    """The shared drop/arrival bookkeeping of all Section-3 algorithms.

    Policies call :meth:`on_drop_phase` and :meth:`on_arrival_phase` from the
    corresponding simulator hooks, passing a ``cached`` predicate so the
    eligibility rule can consult the actual cache contents (the resource
    bank) at drop time.
    """

    def __init__(
        self,
        delta: int | float,
        track_history: bool = False,
        gate_eligibility: bool = True,
    ):
        """``gate_eligibility=False`` disables the Delta-counter gate: every
        color becomes eligible on first arrival and never ineligible.  The
        analysis algorithms of Section 3.3 (Seq-EDF / DS-Seq-EDF as used in
        Lemma 3.8's schedule construction) execute every color's jobs, so
        they run ungated; the online algorithms of Section 3.1 run gated."""
        if delta <= 0:
            raise ValueError(f"Delta must be positive, got {delta}")
        self.delta = delta
        self.track_history = track_history
        self.gate_eligibility = gate_eligibility
        self.states: dict[Color, ColorState] = {}
        #: states bucketed by delay bound: the per-round boundary rules only
        #: apply to colors whose bound divides the round, so iterating the
        #: dividing buckets replaces the historical scan over every state.
        self._by_bound: dict[int, list[ColorState]] = {}
        #: (round, color) of every counter wrapping event, in order — only
        #: when history tracking is on (analysis / super-epochs).
        self.wrap_events: list[tuple[int, Color]] = []

    def state(self, color: Color, delay_bound: int | None = None) -> ColorState:
        st = self.states.get(color)
        if st is None:
            if delay_bound is None:
                raise KeyError(f"unknown color {color!r} (no delay bound supplied)")
            st = ColorState(
                color=color,
                delay_bound=delay_bound,
                index=len(self.states),
                csk=color_sort_key(color),
            )
            if self.track_history:
                st.wrap_history = []
                st.epoch_ends = []
            self.states[color] = st
            self._by_bound.setdefault(delay_bound, []).append(st)
        return st

    def eligible_colors(self) -> list[Color]:
        return [c for c, st in self.states.items() if st.eligible]

    def csk(self, color: Color) -> tuple:
        """The memoized order key of a known color.

        It is the key of the color object first seen, which is what the
        reference paths sort by: colors that compare equal (``1``, ``1.0``,
        ``True``) can still differ in :func:`color_sort_key`.
        """
        return self.states[color].csk

    # -- phase hooks ---------------------------------------------------------

    def on_drop_phase(self, rnd: int, dropped: Sequence[Job], cached) -> set[Color]:
        """Apply the drop-phase rule.

        ``cached(color) -> bool`` reports cache membership at drop time.
        Also credits ineligible drops (for the Lemma 3.4 metric).  Returns
        the set of colors that turned *ineligible* this phase, so incremental
        policies can retire them from their maintained rankings.
        """
        for job in dropped:
            st = self.states.get(job.color)
            if st is None or not st.eligible:
                target = self.state(job.color, job.delay_bound)
                target.ineligible_drops += 1
                target.ineligible_drop_uids.add(job.uid)
        became_ineligible: set[Color] = set()
        if not self.gate_eligibility:
            return became_ineligible
        for bound, bucket in self._by_bound.items():
            if rnd % bound != 0:
                continue
            for st in bucket:
                if st.eligible and not cached(st.color):
                    st.eligible = False
                    st.cnt = 0
                    st.epochs_completed += 1
                    became_ineligible.add(st.color)
                    if st.epoch_ends is not None:
                        st.epoch_ends.append(rnd)
        return became_ineligible

    def on_arrival_phase(self, rnd: int, request: Request) -> set[Color]:
        """Apply the arrival-phase rule (deadline, counter, wrap, eligibility).

        Returns the *touched* colors: every color whose ranking inputs may
        have changed this phase — a delay-bound boundary was crossed (``dd``
        update, possible wrap/timestamp change, possible eligibility gain) or
        the color was first seen.  Idleness changes are not included; the
        pending store's idle-flip feed reports those.
        """
        by_color = request.by_color()
        touched: set[Color] = set()
        # New colors become known on first arrival.
        for color, jobs in by_color.items():
            st = self.states.get(color)
            if st is None:
                st = self.state(color, jobs[0].delay_bound)
                touched.add(color)
            if not self.gate_eligibility:
                if not st.eligible:
                    touched.add(color)
                st.eligible = True
                st.seen = True
        wrapped: list[ColorState] = []
        for bound, bucket in self._by_bound.items():
            if rnd % bound != 0:
                continue
            for st in bucket:
                st.dd = rnd + bound
                touched.add(st.color)
                arrivals = by_color.get(st.color, ())
                if arrivals:
                    st.seen = True
                    st.cnt += len(arrivals)
                if st.cnt >= self.delta:
                    st.cnt %= self.delta
                    st.record_wrap(rnd)
                    if self.track_history:
                        wrapped.append(st)
                    if not st.eligible:
                        st.eligible = True
        if wrapped:
            # The bucketed iteration visits colors grouped by bound; the
            # wrap-event log historically recorded same-round wraps in color
            # creation order, so restore it before appending.
            wrapped.sort(key=lambda st: st.index)
            self.wrap_events.extend((rnd, st.color) for st in wrapped)
        return touched

    # -- metrics ---------------------------------------------------------------

    @property
    def num_epochs(self) -> int:
        """``numEpochs(sigma)``: completed epochs plus live final epochs."""
        total = 0
        for st in self.states.values():
            total += st.epochs_completed
            if st.seen:
                total += 1
        return total

    @property
    def total_ineligible_drops(self) -> int:
        return sum(st.ineligible_drops for st in self.states.values())

    def ineligible_drop_uids(self) -> set[int]:
        """All jobs dropped while their color was ineligible."""
        out: set[int] = set()
        for st in self.states.values():
            out |= st.ineligible_drop_uids
        return out

    def timestamps(self, rnd: int) -> dict[Color, int]:
        return {c: st.timestamp(rnd) for c, st in self.states.items()}

    def lru_order(self, rnd: int) -> list[Color]:
        """Eligible colors, most recent timestamp first (deterministic ties)."""
        eligible = self.eligible_colors()
        return sorted(
            eligible,
            key=lambda c: (-self.states[c].timestamp(rnd), color_sort_key(c)),
        )

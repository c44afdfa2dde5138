"""Colored resources and minimal-reconfiguration diffing.

Resources are numbered from 0 and initially black (unconfigured).  Policies
express their reconfiguration decision as a desired *multiset* of colors (a
color may legitimately appear several times: the Section-3 algorithms cache
every color in two locations).  The bank maps that multiset onto concrete
locations while keeping already-correctly-colored locations untouched, so
the reconfiguration cost charged equals the multiset distance between the
old and new configurations — no policy can be over-charged by unlucky
placement.

The bank keeps a persistent ``color -> sorted locations`` index plus a
sorted free (black) list, so ``reconfigure_to`` diffs the desired multiset
against the current one in time proportional to the *changes* rather than
rescanning all ``n`` locations every mini-round.  The original scan-based
diff survives as ``incremental=False`` — the two modes are bit-identical
(same change list in the same order; the property suite and the
engine-equivalence suite both enforce this), which is what lets
``benchmarks`` report a before/after trajectory against the same digests.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from heapq import merge as _heapmerge
from itertools import chain, islice
from typing import Iterable, Sequence

from repro.core.job import BLACK, Color
from repro.core.ledger import CostLedger
from repro.telemetry.recorder import Recorder, get_recorder


class ResourceBank:
    """``n`` colored resources with minimal-cost multiset reconfiguration.

    ``incremental`` selects the diffing algorithm inside
    :meth:`reconfigure_to`: the maintained-index diff (default) or the
    original full-scan reference.  Both produce identical change lists;
    the flag exists so the reference engine can serve as the oracle.

    ``telemetry`` (default: the process-global recorder) observes diff
    sizes and no-op fast-path hits; it never influences the plan.
    """

    def __init__(
        self,
        n: int,
        incremental: bool = True,
        telemetry: Recorder | None = None,
    ):
        if n < 1:
            raise ValueError(f"need at least one resource, got {n}")
        self._colors: list[Color] = [BLACK] * n
        self.incremental = incremental
        self.telemetry = telemetry if telemetry is not None else get_recorder()
        #: sorted location lists per configured (non-black) color.
        self._locs: dict[Color, list[int]] = {}
        #: sorted list of black (unconfigured) locations.
        self._black: list[int] = list(range(n))
        #: recolor counter + last satisfied desired-list identity: when a
        #: policy re-submits the very object that the bank already satisfied
        #: (and nothing recolored since), the diff is a guaranteed no-op.
        self._mutations = 0
        self._satisfied: object = None
        self._satisfied_at = -1

    # -- inspection -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._colors)

    def color_at(self, location: int) -> Color:
        return self._colors[location]

    def assignment(self) -> tuple[Color, ...]:
        """Current color of every location."""
        return tuple(self._colors)

    def configured_colors(self) -> Counter:
        """Multiset of currently configured (non-black) colors.

        Scans the locations so the Counter's iteration order matches the
        historical first-occurrence-by-location order (the offline window
        planner's greedy tie-breaks observe it).
        """
        counts: Counter = Counter(self._colors)
        counts.pop(BLACK, None)
        return counts

    def locations_of(self, color: Color) -> list[int]:
        return list(self._locs.get(color, ()))

    def is_configured(self, color: Color) -> bool:
        return color in self._locs

    def nonblack_locations_of_any(self, colors: Iterable[Color]) -> Iterable[int]:
        """Ascending locations currently configured to any of ``colors``."""
        lists = [self._locs[c] for c in colors if c in self._locs]
        if not lists:
            return ()
        if len(lists) == 1:
            return iter(lists[0])
        # The lists are disjoint and short; one C-level sort of the
        # concatenation beats a heap merge.
        out: list[int] = []
        for held in lists:
            out += held
        out.sort()
        return out

    # -- internal index maintenance -----------------------------------------------

    def _apply(self, location: int, color: Color) -> None:
        """Recolor one location, keeping the index in sync."""
        old = self._colors[location]
        if old == color:
            return
        if old is BLACK:
            del self._black[bisect_left(self._black, location)]
        else:
            locs = self._locs[old]
            del locs[bisect_left(locs, location)]
            if not locs:
                del self._locs[old]
        if color is BLACK:
            insort(self._black, location)
        else:
            locs = self._locs.get(color)
            if locs is None:
                self._locs[color] = [location]
            else:
                insort(locs, location)
        self._colors[location] = color
        self._mutations += 1

    # -- reconfiguration -------------------------------------------------------

    def reconfigure_to(
        self,
        desired: Iterable[Color],
        rnd: int,
        ledger: CostLedger | None = None,
    ) -> list[tuple[int, Color, Color]]:
        """Recolor locations so the bank holds exactly ``desired``.

        ``desired`` is a multiset of at most ``n`` non-black colors; any
        remaining locations are left black (a location already black stays
        black for free; a location whose color is surplus is recolored to
        black *only if needed to shed surplus copies*, which the paper's model
        never charges for — we therefore keep surplus copies untouched unless
        their slot is claimed by a needed color, and recolor claimed slots
        directly to the new color, one ``Delta`` each).

        Returns the list of ``(location, old_color, new_color)`` changes and
        charges each to ``ledger`` if given.
        """
        if self.incremental:
            if not isinstance(desired, list):
                desired = list(desired)
            if self._mutations == self._satisfied_at and (
                desired is self._satisfied or desired == self._satisfied
            ):
                # The bank still holds every copy it held when this exact
                # multiset was last satisfied, so the diff below would find
                # no deficits.
                if self.telemetry.enabled:
                    self.telemetry.count("repro_bank_noop_total")
                return []
        want = Counter(desired)
        want.pop(BLACK, None)
        if sum(want.values()) > self.n:
            raise ValueError(
                f"desired multiset has {sum(want.values())} colors "
                f"but only {self.n} resources exist"
            )
        if self.incremental:
            plan = self._diff_incremental(want)
        else:
            plan = self._diff_scan(want)
        changes: list[tuple[int, Color, Color]] = []
        for loc, color in plan:
            old = self._colors[loc]
            self._apply(loc, color)
            changes.append((loc, old, color))
            if ledger is not None:
                ledger.charge_reconfig(rnd, color)
        if self.incremental:
            self._satisfied = desired
            self._satisfied_at = self._mutations
        if changes and self.telemetry.enabled:
            self.telemetry.observe("repro_bank_diff_size", len(changes))
        return changes

    def _diff_incremental(self, want: Counter) -> list[tuple[int, Color]]:
        """Multiset diff via the maintained index — O(changes)-ish.

        Produces the exact ``(location, new_color)`` plan of the reference
        scan: missing copies in first-appearance order of ``desired``, slots
        in ascending location order within the black → unwanted → surplus
        preference tiers (each color keeps its lowest-indexed copies).
        """
        locs = self._locs
        missing: list[Color] = []
        for color, count in want.items():
            deficit = count - len(locs.get(color, ()))
            if deficit > 0:
                missing.extend([color] * deficit)
        if not missing:
            return []

        # Candidate slots, lazily in preference order.  Surplus copies of a
        # still-wanted color are its locations beyond the kept (lowest) ones;
        # unwanted colors contribute every location.  ``heapq.merge`` keeps
        # the ascending-location order of the reference scan.
        surplus_lists = []
        unwanted_lists = []
        for color, held in locs.items():
            wanted = want.get(color, 0)
            if wanted == 0:
                unwanted_lists.append(held)
            elif len(held) > wanted:
                surplus_lists.append(held[wanted:])
        slots = list(
            islice(
                chain(
                    self._black,
                    _heapmerge(*unwanted_lists),
                    _heapmerge(*surplus_lists),
                ),
                len(missing),
            )
        )
        if len(slots) < len(missing):
            raise AssertionError("slot accounting bug: not enough free slots")
        return list(zip(slots, missing))

    def _diff_scan(self, want: Counter) -> list[tuple[int, Color]]:
        """Reference multiset diff: the original three-scan algorithm."""
        # Locations already holding a wanted color keep it (up to
        # multiplicity); everything else is a candidate slot.
        keep: list[bool] = [False] * self.n
        remaining = Counter(want)
        for i, color in enumerate(self._colors):
            if remaining.get(color, 0) > 0:
                remaining[color] -= 1
                keep[i] = True

        # Missing copies go into free slots: prefer black slots, then slots
        # holding colors that are no longer wanted at all, then surplus
        # copies of still-wanted colors.  The preference order does not
        # change the charged cost (every claimed slot costs one Delta) but
        # keeps surplus replicas alive when there is room, matching the
        # "keep it cached if nothing needs the slot" reading of the paper.
        missing: list[Color] = []
        for color, count in remaining.items():
            missing.extend([color] * count)
        if not missing:
            return []
        free_black = [i for i in range(self.n) if not keep[i] and self._colors[i] is BLACK]
        free_unwanted = [
            i
            for i in range(self.n)
            if not keep[i]
            and self._colors[i] is not BLACK
            and want.get(self._colors[i], 0) == 0
        ]
        free_surplus = [
            i
            for i in range(self.n)
            if not keep[i]
            and self._colors[i] is not BLACK
            and want.get(self._colors[i], 0) > 0
        ]
        slots = free_black + free_unwanted + free_surplus
        if len(slots) < len(missing):
            raise AssertionError("slot accounting bug: not enough free slots")
        return list(zip(slots, missing))

    def set_color(
        self, location: int, color: Color, rnd: int, ledger: CostLedger | None = None
    ) -> bool:
        """Explicitly recolor one location; returns True if a change occurred.

        Used by schedule replay, where the reconfigurations are prescribed
        per-location rather than derived from a desired multiset.
        """
        if self._colors[location] == color:
            return False
        self._apply(location, color)
        if ledger is not None and color is not BLACK:
            ledger.charge_reconfig(rnd, color)
        elif ledger is not None:
            # Recoloring *to* black is never useful under the cost model but
            # is permitted by replay; it still costs Delta per the model
            # ("a resource can be reconfigured at any time at a fixed cost").
            ledger.charge_reconfig(rnd, color)
        return True


def multiset_distance(a: Sequence[Color], b: Sequence[Color]) -> int:
    """Number of recolors needed to turn multiset ``a`` into multiset ``b``.

    Black entries are slack: a black slot can absorb a new color at the cost
    of one recolor, and an unneeded color can be left in place for free, so
    the distance is simply the number of wanted copies not already present.
    """
    have = Counter(c for c in a if c is not BLACK)
    want = Counter(c for c in b if c is not BLACK)
    missing = 0
    for color, count in want.items():
        missing += max(0, count - have.get(color, 0))
    return missing

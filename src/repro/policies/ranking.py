"""The paper's ranking schemes (Section 3.1.2 / 3.3).

Eligible colors are ranked *first on idleness* (nonidle colors first), then
in ascending order of deadlines (``l.dd``), breaking ties by increasing
delay bounds, then by the consistent order of colors.  Pending jobs are
ranked by increasing deadline, then increasing delay bound, then the
consistent color order (``Job.sort_key`` implements this directly).

Lower keys mean better (higher) rank throughout.

:class:`MaintainedRanking` keeps such an order *persistent* between rounds:
instead of re-sorting every eligible color each reconfiguration phase, the
incremental policies mark the colors whose rank inputs changed (arrivals,
wraps, eligibility flips, idleness flips), and the structure keys and sorts
them in only when the order is next read.  Because every rank key ends in
the consistent color order, keys are unique per color and the maintained
order is exactly ``sorted(colors, key=...)`` — bit-identical to a full
re-sort, which the policies' reference-engine paths and the property suite
enforce.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable

from repro.core.job import Color, Job, color_sort_key
from repro.policies.state import SectionThreeState


def eligible_color_rank_key(
    state: SectionThreeState, idle: Callable[[Color], bool]
) -> Callable[[Color], tuple]:
    """Key function ranking eligible colors per the paper.

    ``idle(color)`` is the idleness predicate (typically
    ``simulator.is_idle``).  Sorting eligible colors by the returned key puts
    the paper's top-ranked color first.
    """

    def key(color: Color) -> tuple:
        st = state.states[color]
        return (
            1 if idle(color) else 0,
            st.dd,
            st.delay_bound,
            color_sort_key(color),
        )

    return key


def job_rank_key(job: Job) -> tuple:
    """Pending-job ranking (increasing deadline, delay bound, color order)."""
    return job.sort_key()


def edf_rank_key(
    state: SectionThreeState, idle: Callable[[Color], bool]
) -> Callable[[Color, int], tuple]:
    """The EDF rank key of a marked color, as :class:`MaintainedRanking`
    calls it (the mark round does not enter the EDF key)."""
    states = state.states

    def key(color: Color, rnd: int) -> tuple:
        st = states[color]
        return (1 if idle(color) else 0, st.dd, st.delay_bound, st.csk)

    return key


def lru_rank_key(state: SectionThreeState) -> Callable[[Color, int], tuple]:
    """The DeltaLRU rank key at the round a color was marked: most recent
    timestamp first, color order ties."""
    states = state.states

    def key(color: Color, rnd: int) -> tuple:
        st = states[color]
        return (-st.timestamp(rnd), st.csk)

    return key


class MaintainedRanking:
    """A sorted color sequence that keys and settles its changes on read.

    ``key(color, rnd)`` is a color's rank key as marked in round ``rnd``.
    Keys must be unique per color (every paper ranking ends in the
    consistent color order, so they are).  :meth:`mark` records which
    colors joined or changed, with the round, and :meth:`remove` which
    left; neither computes a key.  :meth:`top` and :meth:`ordered` settle
    every change recorded since the last read, keying each changed color
    once at the round of its latest mark, and then return exactly what
    ``sorted(members, key=...)`` would.  The policies mark a color in
    every round that can change its key (a delay-bound boundary, an
    eligibility change, an idleness flip), so a key computed at the read
    equals the one computed when the color was marked.  A ranking that is
    marked every round but read rarely pays for its changes once, at the
    read, and keys nothing if it is never read.  :meth:`members`, ``len``,
    ``in`` and :attr:`version` read the current membership without
    settling.

    Settling moves each changed color with one bisect plus a C-level list
    shift; when the changes touch a large share of the members, it does one
    full rebuild instead, which is never slower than the historical
    re-sort.
    """

    __slots__ = ("_key", "_keys", "_colors", "_settled", "_members", "_moved", "version")

    def __init__(self, key: Callable[[Color, int], tuple]) -> None:
        self._key = key
        #: the settled order (as of the last read).
        self._keys: list[tuple] = []
        self._colors: list[Color] = []
        #: the key of every color in the settled order.
        self._settled: dict[Color, tuple] = {}
        #: the current members.
        self._members: set[Color] = set()
        #: colors marked or removed since the last read, mapped to the round
        #: of their latest mark (None once removed).
        self._moved: dict[Color, int | None] = {}
        #: the number of membership changes so far: an equal count means
        #: the same members.
        self.version = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, color: Color) -> bool:
        return color in self._members

    def members(self) -> set[Color]:
        """The current members (no settling).  Treat as read-only."""
        return self._members

    def mark(self, rnd: int, colors: Iterable[Color]) -> None:
        """Record that ``colors`` joined or may have been re-keyed in ``rnd``."""
        members = self._members
        moved = self._moved
        for color in colors:
            moved[color] = rnd
            if color not in members:
                members.add(color)
                self.version += 1

    def remove(self, colors: Iterable[Color]) -> None:
        """Record that ``colors`` left (non-members are ignored)."""
        members = self._members
        moved = self._moved
        for color in colors:
            if color in members:
                members.discard(color)
                moved[color] = None
                self.version += 1

    def _settle(self) -> None:
        """Key the changed colors and bring the settled order up to date."""
        moved = self._moved
        if not moved:
            return
        key = self._key
        settled = self._settled
        if len(moved) > max(8, len(self._colors) // 2):
            for color, rnd in moved.items():
                if rnd is None:
                    settled.pop(color, None)
                else:
                    settled[color] = key(color, rnd)
            pairs = sorted(zip(settled.values(), settled.keys()))
            self._keys = [k for k, _ in pairs]
            self._colors = [c for _, c in pairs]
        else:
            keys, colors = self._keys, self._colors
            for color, rnd in moved.items():
                old = settled.get(color)
                new = None if rnd is None else key(color, rnd)
                if new == old:
                    continue
                if old is not None:
                    i = bisect_left(keys, old)
                    del keys[i]
                    del colors[i]
                if new is None:
                    del settled[color]
                else:
                    settled[color] = new
                    i = bisect_left(keys, new)
                    keys.insert(i, new)
                    colors.insert(i, color)
        moved.clear()

    def top(self, k: int) -> list[Color]:
        """The ``k`` best-ranked colors (ascending key order)."""
        self._settle()
        return self._colors[:k]

    def ordered(self) -> list[Color]:
        """All members, best rank first.  Treat as read-only."""
        self._settle()
        return self._colors

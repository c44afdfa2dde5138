"""The paper's ranking schemes (Section 3.1.2 / 3.3).

Eligible colors are ranked *first on idleness* (nonidle colors first), then
in ascending order of deadlines (``l.dd``), breaking ties by increasing
delay bounds, then by the consistent order of colors.  Pending jobs are
ranked by increasing deadline, then increasing delay bound, then the
consistent color order (``Job.sort_key`` implements this directly).

Lower keys mean better (higher) rank throughout.

:class:`MaintainedRanking` keeps such an order *persistent* between rounds:
instead of re-sorting every eligible color each reconfiguration phase, the
incremental policies push per-round deltas (arrivals, wraps, eligibility
flips, idleness flips) into the structure, which sorts them in only when
the order is next read.  Because every rank key ends in the consistent
color order, keys are unique per color and the maintained order is
exactly ``sorted(colors, key=...)`` — bit-identical to a full re-sort,
which the reference (``incremental=False``) policy paths and the property
suite enforce.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, KeysView

from repro.core.job import Color, Job, color_sort_key
from repro.policies.state import ColorState, SectionThreeState


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


def edf_key_of(st: ColorState, idle: bool) -> tuple:
    """The EDF rank key from explicit components (no predicate calls)."""
    return (1 if idle else 0, st.dd, st.delay_bound, st.csk)


def lru_key_of(st: ColorState, rnd: int) -> tuple:
    """The DeltaLRU rank key: most recent timestamp first, color order ties."""
    return (-st.timestamp(rnd), st.csk)


class MaintainedRanking:
    """A sorted ``(key, color)`` sequence that settles its order on read.

    Keys must be unique per color (every paper ranking ends in the
    consistent color order, so they are).  :meth:`apply` only records the
    new keys; :meth:`top` and :meth:`ordered` settle every change recorded
    since the last read and then return exactly what
    ``sorted(members, key=...)`` would.  A ranking that is updated every
    round but read rarely pays for its changes once, at the read, and a
    color re-keyed several times between reads moves once.
    :meth:`members`, ``len`` and ``in`` read the current membership without
    settling.

    Settling moves each changed color with one bisect plus a C-level list
    shift; when the changes touch a large share of the members, it does one
    full rebuild instead, which is never slower than the historical
    re-sort.
    """

    __slots__ = ("_keys", "_colors", "_key_of", "_moved")

    def __init__(self) -> None:
        #: the settled order (as of the last read).
        self._keys: list[tuple] = []
        self._colors: list[Color] = []
        #: the current key of every member.
        self._key_of: dict[Color, tuple] = {}
        #: colors re-keyed, added or removed since the last read, mapped to
        #: their key in the settled order (None if they are not in it).
        self._moved: dict[Color, tuple | None] = {}

    def __len__(self) -> int:
        return len(self._key_of)

    def __contains__(self, color: Color) -> bool:
        return color in self._key_of

    def members(self) -> KeysView[Color]:
        """The current members, in no particular order (no settling)."""
        return self._key_of.keys()

    def clear(self) -> None:
        self._keys.clear()
        self._colors.clear()
        self._key_of.clear()
        self._moved.clear()

    def apply(
        self,
        updates: Iterable[tuple[Color, tuple]],
        removals: Iterable[Color] = (),
    ) -> None:
        """Record a batch of removals, then key updates (inserts included)."""
        key_of = self._key_of
        moved = self._moved
        for color in removals:
            if color in key_of:
                moved.setdefault(color, key_of.pop(color))
        for color, key in updates:
            old = key_of.get(color)
            if old != key:
                moved.setdefault(color, old)
                key_of[color] = key

    def _settle(self) -> None:
        """Bring the settled order up to date with the current keys."""
        moved = self._moved
        if not moved:
            return
        key_of = self._key_of
        if len(moved) > max(8, len(self._colors) // 2):
            pairs = sorted(zip(key_of.values(), key_of.keys()))
            self._keys = [k for k, _ in pairs]
            self._colors = [c for _, c in pairs]
        else:
            keys, colors = self._keys, self._colors
            for color, old in moved.items():
                key = key_of.get(color)
                if key == old:
                    continue
                if old is not None:
                    i = bisect_left(keys, old)
                    del keys[i]
                    del colors[i]
                if key is not None:
                    i = bisect_left(keys, key)
                    keys.insert(i, key)
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

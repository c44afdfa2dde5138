"""Algorithm Aggregate (Section 4.3, Lemma 4.1).

Transforms an arbitrary offline schedule ``T`` for a batched instance ``I``
into a schedule ``T'`` for the Distribute-split instance ``I'`` using three
times the resources, executing the same number of jobs (Lemma 4.5) at a
reconfiguration cost within a constant factor of ``T``'s (Lemma 4.6).

Faithful elements of the construction:

- resources ``(k, 0..2)`` of ``T'`` mirror resource ``k`` of ``T``;
- per block of each delay bound, resources monochromatic for a color in
  ``T`` replay that color's jobs as a single sub-color run, with labels
  inherited across consecutive blocks (so a resource that stays on one color
  keeps one sub-color — no extra reconfigurations at block boundaries);
- leftover job groups are packed into the tripled copies of ``T``-multi-
  chromatic resources, ``p`` jobs at a time, in ascending slot order;
- jobs are scheduled in ascending order of delay bound, block by block.

Pragmatic deviations (documented per DESIGN.md §6): the paper's label
assignment can name a sub-color that has fewer jobs than the group being
placed (labels are inherited independently of batch sizes); when that
happens we fall back to the smallest label with enough unassigned jobs in
the batch, which preserves validity (Lemma 4.3) and drop-cost equality
(Lemma 4.5) and keeps the reconfiguration factor constant empirically (the
property tests assert all three).  Likewise, if no multichromatic triple has
``p`` free slots (Lemma 4.4 guarantees one for schedules produced by the
paper's pipeline, but we accept *any* valid ``T``), the group spills into
arbitrary free slots of the block.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.job import BLACK, Color, color_sort_key
from repro.core.request import RequestSequence
from repro.core.schedule import Schedule


@dataclass
class AggregateResult:
    """Outcome of the Aggregate transformation."""

    schedule: Schedule
    #: True if a group could not be placed on a multichromatic triple and
    #: spilled into arbitrary free slots (never happens for pipeline-shaped
    #: inputs; possible for hand-crafted schedules).
    spilled: bool = False
    #: True if a label had to be remapped to a sub-color with enough jobs.
    relabeled: bool = False


class _ResourceTimeline:
    """Color-per-round assignment of one output resource, built as we go."""

    __slots__ = ("colors",)

    def __init__(self, horizon: int):
        self.colors: list[Color] = [BLACK] * horizon

    def occupied(self, rnd: int) -> bool:
        return self.colors[rnd] is not BLACK

    def paint(self, rnd: int, color: Color) -> None:
        self.colors[rnd] = color


def aggregate_schedule(
    t_schedule: Schedule,
    original: RequestSequence,
    split: RequestSequence,
) -> AggregateResult:
    """Build ``T'`` (on ``3 * T.n`` resources) from ``T``.

    ``original`` is the batched sequence ``T`` schedules; ``split`` is its
    Distribute transform (sub-colors ``(l, j)``, ``origin`` pointing back).
    """
    if t_schedule.speed != 1:
        raise ValueError("Aggregate is defined for uni-speed schedules")
    m = t_schedule.n
    horizon = max(original.horizon, split.horizon)

    jobs_by_uid = {job.uid: job for job in original.jobs()}
    bounds = original.delay_bounds()

    # --- reconstruct T's per-resource color timeline ------------------------
    t_colors: list[list[Color]] = [[BLACK] * horizon for _ in range(m)]
    per_loc: dict[int, list] = defaultdict(list)
    for rc in t_schedule.reconfigs:
        per_loc[rc.location].append(rc)
    for loc, rcs in per_loc.items():
        rcs.sort(key=lambda rc: (rc.round, rc.mini))
        cursor = 0
        current: Color = BLACK
        for rc in rcs:
            for rnd in range(cursor, min(rc.round, horizon)):
                t_colors[loc][rnd] = current
            current = rc.new_color
            cursor = rc.round
        for rnd in range(cursor, horizon):
            t_colors[loc][rnd] = current

    # --- executions of T grouped by (bound, block, color) --------------------
    executed: dict[tuple[int, int, Color], int] = Counter()
    for ex in t_schedule.executions:
        job = jobs_by_uid[ex.uid]
        p = job.delay_bound
        executed[(p, ex.round // p, job.color)] += 1

    # --- split-side job pools: (color l, label j, batch start) -> uids -------
    pool: dict[tuple[Color, int, int], list[int]] = defaultdict(list)
    for job in split.jobs():
        parent, label = job.color  # type: ignore[misc]
        pool[(parent, label, job.arrival)].append(job.uid)
    for uids in pool.values():
        uids.sort()

    def take_jobs(parent: Color, label: int, start: int, count: int) -> list[int] | None:
        uids = pool.get((parent, label, start), [])
        if len(uids) < count:
            return None
        taken = uids[-count:]
        del uids[-count:]
        return taken

    def any_label_with(parent: Color, start: int, count: int) -> int | None:
        candidates = sorted(
            label
            for (par, label, st), uids in pool.items()
            if par == parent and st == start and len(uids) >= count
        )
        return candidates[0] if candidates else None

    # --- helpers over block structure ----------------------------------------
    def mono_color(loc: int, p: int, i: int) -> Color | None:
        """The color resource ``loc`` holds throughout block(p, i), if any."""
        start, end = i * p, min((i + 1) * p, horizon)
        first = t_colors[loc][start]
        if first is BLACK:
            return None
        for rnd in range(start + 1, end):
            if t_colors[loc][rnd] != first:
                return None
        return first

    all_bounds = sorted(set(bounds.values()))
    max_bound = all_bounds[-1] if all_bounds else 1

    def t_level(loc: int, p: int, i: int) -> int:
        """Largest bound q such that loc is monochromatic on the enclosing
        block(q, .) — resources stable at coarser granularity rank higher."""
        level = 0
        q = p
        while q <= max_bound:
            if mono_color(loc, q, (i * p) // q) is None:
                break
            level = q
            q *= 2
        return level

    # --- build T' -------------------------------------------------------------
    out = [_ResourceTimeline(horizon) for _ in range(3 * m)]
    schedule = Schedule(n=3 * m)
    spilled = relabeled = False
    # label memory: (p, color) -> {t-resource k: label in the previous block}
    prev_labels: dict[tuple[int, Color], dict[int, int]] = defaultdict(dict)

    colors_by_bound: dict[int, list[Color]] = defaultdict(list)
    for color, p in bounds.items():
        colors_by_bound[p].append(color)
    for p in colors_by_bound:
        colors_by_bound[p].sort(key=color_sort_key)

    exec_record: list[tuple[int, int, int]] = []  # (round, out-resource, uid)

    for p in all_bounds:
        num_blocks = (horizon + p - 1) // p
        for i in range(num_blocks):
            start = i * p
            end = min(start + p, horizon)
            for color in colors_by_bound[p]:
                count = executed.get((p, i, color), 0)
                mono = [
                    k for k in range(m) if mono_color(k, p, i) == color
                ]
                # Labels: inherit where the resource was monochromatic for
                # this color in the previous block too.
                labels: dict[int, int] = {}
                used = set()
                prev = prev_labels.get((p, color), {})
                for k in mono:
                    if k in prev and prev[k] not in used:
                        labels[k] = prev[k]
                        used.add(prev[k])
                free_labels = iter(
                    lbl for lbl in range(len(mono) + 1) if lbl not in used
                )
                for k in mono:
                    if k not in labels:
                        labels[k] = next(free_labels)
                prev_labels[(p, color)] = dict(labels)

                if count == 0:
                    continue

                # Groups of size p, descending.
                groups = [p] * (count // p)
                if count % p:
                    groups.append(count % p)
                # Rank monochromatic resources by descending T-level.
                mono.sort(key=lambda k: (-t_level(k, p, i), k))

                q_label = len(mono)
                for g_idx, size in enumerate(groups):
                    if g_idx < len(mono):
                        k = mono[g_idx]
                        label = labels[k]
                        uids = take_jobs(color, label, start, size)
                        if uids is None:
                            relabeled = True
                            alt = any_label_with(color, start, size)
                            if alt is None:
                                raise AssertionError(
                                    f"no sub-color of {color!r} has {size} jobs "
                                    f"in batch {start} — T executes jobs that "
                                    "do not exist"
                                )
                            uids = take_jobs(color, alt, start, size)
                            label = alt
                        res = 3 * k
                        sub = (color, label)
                        rnd = start
                        placed = 0
                        while placed < size and rnd < end:
                            if not out[res].occupied(rnd):
                                out[res].paint(rnd, sub)
                                exec_record.append((rnd, res, uids[placed]))
                                placed += 1
                            rnd += 1
                        if placed < size:
                            raise AssertionError(
                                "monochromatic resource lacks free slots — "
                                "T executed more jobs than block capacity"
                            )
                        # Mark the whole block occupied on this resource by
                        # painting the remaining free rounds with the
                        # sub-color (keeps it monochromatic; costs nothing).
                        for rr in range(start, end):
                            if not out[res].occupied(rr):
                                out[res].paint(rr, sub)
                    else:
                        # Leftover group: place on a multichromatic triple.
                        label = q_label
                        uids = take_jobs(color, label, start, size)
                        if uids is None:
                            relabeled = True
                            alt = any_label_with(color, start, size)
                            if alt is None:
                                raise AssertionError(
                                    f"no sub-color of {color!r} has {size} "
                                    f"jobs in batch {start}"
                                )
                            uids = take_jobs(color, alt, start, size)
                            label = alt
                        q_label += 1
                        sub = (color, label)
                        slots = _find_multichromatic_slots(
                            out, t_colors, m, p, i, start, end, size,
                            mono_color,
                        )
                        if slots is None:
                            spilled = True
                            slots = _any_free_slots(out, start, end, size)
                            if slots is None:
                                raise AssertionError(
                                    "no free slots in block — capacity bug"
                                )
                        for (res, rnd), uid in zip(slots, uids):
                            out[res].paint(rnd, sub)
                            exec_record.append((rnd, res, uid))

    # --- emit reconfigurations and executions ---------------------------------
    for res in range(3 * m):
        current: Color = BLACK
        for rnd in range(horizon):
            color = out[res].colors[rnd]
            if color is not BLACK and color != current:
                schedule.add_reconfig(rnd, res, color)
                current = color
    for rnd, res, uid in exec_record:
        schedule.add_execution(rnd, res, uid)

    return AggregateResult(schedule=schedule, spilled=spilled, relabeled=relabeled)


def _find_multichromatic_slots(
    out: list[_ResourceTimeline],
    t_colors: list[list[Color]],
    m: int,
    p: int,
    i: int,
    start: int,
    end: int,
    size: int,
    mono_color,
) -> list[tuple[int, int]] | None:
    """First multichromatic triple with >= p free slots in the block."""
    for k in range(m):
        if mono_color(k, p, i) is not None:
            continue
        # Resource k never configured in the block does not count as
        # multichromatic per the paper, but its triple is still usable; we
        # accept it (harmless superset).
        free: list[tuple[int, int]] = []
        for res in (3 * k, 3 * k + 1, 3 * k + 2):
            for rnd in range(start, end):
                if not out[res].occupied(rnd):
                    free.append((res, rnd))
        if len(free) >= max(p, size):
            free.sort()
            return free[:size]
    return None


def _any_free_slots(
    out: list[_ResourceTimeline], start: int, end: int, size: int
) -> list[tuple[int, int]] | None:
    free: list[tuple[int, int]] = []
    for res in range(len(out)):
        for rnd in range(start, end):
            if not out[res].occupied(rnd):
                free.append((res, rnd))
                if len(free) == size:
                    return sorted(free)
    return None

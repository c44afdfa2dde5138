"""Reference DP: the exact-OPT search as it stood before its tables.

The functions below are the earlier ``repro.opt.brute`` search, kept
verbatim as the reference that ``tests/opt/test_same_search.py``
compares the current search with: same memo states, same configurations,
same cost for integer ``Delta``, and ``SearchBudgetExceeded`` at the same
``max_states``.  Two edits only: the exception class is imported instead
of defined, so both searches raise the one class, and the ``Solution``
it builds passes only the fields ``Solution`` has today.  It rebuilds
and sorts the pending summary on every call, and publishes its cost
summed in recursion order.
"""

from __future__ import annotations

from typing import Iterator

from repro.opt.brute import SearchBudgetExceeded
from repro.opt.model import OptModel, Solution

__all__ = ["solve_brute"]


def _apply_drops(pending: dict, rnd: int) -> tuple[dict, int]:
    """Remove (and count) jobs whose deadline has arrived."""
    dropped = 0
    out: dict = {}
    for cid, dl_counts in pending.items():
        kept = tuple(item for item in dl_counts if item[0] > rnd)
        if len(kept) != len(dl_counts):
            dropped += sum(c for d, c in dl_counts if d <= rnd)
        if kept:
            out[cid] = kept
    return out, dropped


def _add_arrivals(pending: dict, arrivals) -> dict:
    if not arrivals:
        return pending
    out = dict(pending)
    for cid, incoming in arrivals.items():
        existing = out.get(cid)
        if existing is None:
            out[cid] = incoming
            continue
        merged: dict[int, int] = dict(existing)
        for deadline, count in incoming:
            merged[deadline] = merged.get(deadline, 0) + count
        out[cid] = tuple(sorted(merged.items()))
    return out


def _execute(pending: dict, config_counts: dict) -> dict:
    """Each configured copy runs one earliest-deadline job of its color."""
    out = dict(pending)
    for cid, copies in config_counts.items():
        dl_counts = out.get(cid)
        if not dl_counts:
            continue
        remaining = copies
        kept = []
        for deadline, count in dl_counts:
            if remaining <= 0:
                kept.append((deadline, count))
                continue
            take = min(count, remaining)
            remaining -= take
            if count > take:
                kept.append((deadline, count - take))
        if kept:
            out[cid] = tuple(kept)
        else:
            del out[cid]
    return out


def _candidates(
    current: tuple, pending: dict, m: int
) -> Iterator[tuple[tuple, dict, int]]:
    """Yield ``(post-config key, post-config counts, copies added)``.

    A color's multiplicity is capped at ``max(current copies, min(pending,
    m))`` — extra idle copies are pure waste; feasibility requires
    ``discarded <= added`` (every discarded copy is overwritten).
    """
    cur: dict[int, int] = {}
    for cid in current:
        cur[cid] = cur.get(cid, 0) + 1
    colors = sorted(set(cur) | set(pending))
    caps = [
        min(m, max(cur.get(cid, 0),
                   min(sum(c for _, c in pending.get(cid, ())), m)))
        for cid in colors
    ]

    def assign(idx: int, remaining: int, chosen: list[int]):
        if idx == len(colors):
            yield tuple(chosen)
            return
        for mult in range(min(caps[idx], remaining) + 1):
            chosen.append(mult)
            yield from assign(idx + 1, remaining - mult, chosen)
            chosen.pop()

    for mults in assign(0, m, []):
        added = discarded = 0
        counts: dict[int, int] = {}
        key: list[int] = []
        for cid, mult in zip(colors, mults):
            have = cur.get(cid, 0)
            if mult > have:
                added += mult - have
            else:
                discarded += have - mult
            if mult:
                counts[cid] = mult
                key.extend([cid] * mult)
        if discarded <= added:
            yield tuple(key), counts, added


def solve_brute(model: OptModel, max_states: int = 2_000_000) -> Solution:
    """Exact optimum of ``model`` by memoized exhaustive search.

    Raises :class:`SearchBudgetExceeded` past ``max_states`` memo entries
    — the backend is for the tiny instances of the ratio dashboard and
    the differential tests, not for production workloads.
    """
    horizon, m, delta = model.horizon, model.m, model.delta
    arrivals = model.arrivals

    memo: dict[tuple, int | float] = {}
    choice: dict[tuple, tuple] = {}

    def pkey(pending: dict) -> tuple:
        return tuple(sorted(pending.items()))

    def solve(rnd: int, config: tuple, pending: dict) -> int | float:
        if rnd == horizon:
            # Whatever is still pending was never executed: one drop each
            # (their deadlines lie at or past the horizon).
            return sum(c for dl in pending.values() for _, c in dl)
        key = (rnd, config, pkey(pending))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(memo) >= max_states:
            raise SearchBudgetExceeded(
                f"brute backend exceeded {max_states} states on "
                f"{model.instance.name!r} (m={m}, horizon={horizon})"
            )
        after_drop, dropped = _apply_drops(pending, rnd)
        after_arrivals = _add_arrivals(after_drop, arrivals.get(rnd, {}))
        best = None
        best_post: tuple = config
        for post, counts, added in _candidates(config, after_arrivals, m):
            sub = solve(rnd + 1, post, _execute(after_arrivals, counts))
            total = dropped + added * delta + sub
            if best is None or total < best:
                best, best_post = total, post
        assert best is not None  # keeping the current config is always legal
        memo[key] = best
        choice[key] = best_post
        return best

    cost = solve(0, (), {})

    # Replay the stored decisions to emit the per-round configuration plan.
    configs: list[tuple] = []
    pending: dict = {}
    config: tuple = ()
    for rnd in range(horizon):
        post = choice[(rnd, config, pkey(pending))]
        after_drop, _ = _apply_drops(pending, rnd)
        after_arrivals = _add_arrivals(after_drop, arrivals.get(rnd, {}))
        counts: dict[int, int] = {}
        for cid in post:
            counts[cid] = counts.get(cid, 0) + 1
        pending = _execute(after_arrivals, counts)
        config = post
        configs.append(tuple(model.color_of(cid) for cid in post))

    return Solution(
        cost=cost,
        configs=tuple(configs),
        backend="brute",
        states=len(memo),
    )

"""Exhaustive memoized DP over the compiled model — the one exact-OPT search.

A state is ``(round, configuration, pending)``:

- ``configuration`` is the sorted tuple of interned color ids the
  resources hold entering the round (black omitted, at most ``m``);
- ``pending`` is one canonical tuple ``((cid, ((deadline, count), ...)),
  ...)``, sorted by color id and, within a color, by deadline.  Unit
  jobs of one color and deadline are interchangeable, so the summary
  loses nothing, and it is built sorted, so it is the memo key as is.

Exactness rests on the structural facts :mod:`repro.opt.model` records:
greedy earliest-deadline execution is optimal once per-round
configurations are fixed; the candidate colors of a round are the
pending ones plus the configured ones; a color never needs more than
``max(current copies, min(pending jobs, m))`` copies; and a
post-configuration is feasible iff every discarded copy is overwritten
by an added one (recoloring to black is never useful), at ``Delta`` per
added copy.

Each round drops the jobs whose deadline has come, adds the round's
arrivals, and tries every feasible post-configuration in one fixed order
(colors ascending, multiplicities lexicographic), keeping the first of
minimum cost.  The visited states, their order and that tie-break are a
contract: ``Solution.states`` and the chosen configurations are pinned
by the tests and published in ``BENCH_opt.json``.  Three tables, which
live for one solve, keep the per-state work small without changing it:

- per ``(round, pending)`` node: the drops and the post-arrival pending
  that every configuration there shares, the child node per execution
  vector, and the memo values and choices per configuration;
- per ``(configuration, capped pending totals)``: the candidate list;
- per ``(deadline counts, copies)``: what is left after execution.

The search compares ``dropped + added * Delta + rest`` as it recurses.
The published cost is recomputed from the chosen plan as
``reconfigs * Delta + drops`` — the ledger's own formula — so the
decoder's exact replay check holds for every ``Delta``, including
non-dyadic floats whose sums drift in the last bit.
"""

from __future__ import annotations

import operator
from collections import Counter

from repro.opt.model import OptModel, Solution

__all__ = ["SearchBudgetExceeded", "solve_brute"]


class SearchBudgetExceeded(RuntimeError):
    """Raised when the brute backend would explore too many states."""


def _merge(a: tuple, b: tuple, combine) -> tuple:
    """Merge two key-sorted ``((key, value), ...)`` tuples; equal keys combine."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = a[i][0], b[j][0]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append(b[j])
            j += 1
        else:
            out.append((ka, combine(a[i][1], b[j][1])))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _merge_counts(a: tuple, b: tuple) -> tuple:
    return _merge(a, b, operator.add)


def _advance(pending: tuple, rnd: int, arrivals: tuple) -> tuple[int, tuple]:
    """Drop the jobs due at ``rnd``, then add the round's arrivals.

    Every pending deadline is at least ``rnd`` and deadlines are unique
    within a color, so only a color's first entry can fall due.
    """
    dropped = 0
    kept = []
    for cid, counts in pending:
        if counts[0][0] <= rnd:
            dropped += counts[0][1]
            counts = counts[1:]
            if not counts:
                continue
        kept.append((cid, counts))
    return dropped, _merge(tuple(kept), arrivals, _merge_counts)


def _execute_counts(counts: tuple, copies: int) -> tuple:
    """``counts`` after ``copies`` earliest-deadline executions."""
    for i, (deadline, count) in enumerate(counts):
        if copies < count:
            return ((deadline, count - copies), *counts[i + 1:])
        copies -= count
    return ()


def _multiplicities(caps: list[int], budget: int) -> list[tuple]:
    """Every ``mults`` with ``mults[i] <= caps[i]`` and ``sum <= budget``,
    in lexicographic order."""
    tails: list[tuple[tuple, int]] = [((), 0)]
    for cap in reversed(caps):
        tails = [
            ((mult, *tail), used + mult)
            for mult in range(cap + 1)
            for tail, used in tails
            if used + mult <= budget
        ]
    return [mults for mults, _ in tails]


def _candidates(config: tuple, colors: tuple, capped: tuple, m: int, delta):
    """Feasible post-configurations of ``config``, in search order.

    ``colors`` are the pending colors and ``capped`` their job totals
    capped at ``m``.  Returns ``(vectors, entries)``: each entry is
    ``(post, added * delta, vector index)``, and ``vectors[i]`` gives the
    copies of each pending color, the only part of ``post`` that
    execution sees.  A post-configuration is feasible iff its copies
    added cover its copies discarded, that is iff it holds at least
    ``len(config)`` copies.
    """
    cur = Counter(config)
    pend = dict(zip(colors, capped))
    universe = sorted(cur.keys() | pend.keys())
    have = [cur[cid] for cid in universe]
    caps = [min(m, max(h, pend.get(cid, 0))) for cid, h in zip(universe, have)]
    where = [universe.index(cid) for cid in colors]
    vectors: dict[tuple, int] = {}
    entries = []
    for mults in _multiplicities(caps, m):
        if sum(mults) < len(config):
            continue
        added = sum(mult - h for mult, h in zip(mults, have) if mult > h)
        post = tuple(
            cid for cid, mult in zip(universe, mults) for _ in range(mult)
        )
        vector = tuple(mults[i] for i in where)
        index = vectors.setdefault(vector, len(vectors))
        entries.append((post, added * delta, index))
    return tuple(vectors), tuple(entries)


class _Node:
    """What every state at one ``(round, pending)`` shares."""

    __slots__ = ("dropped", "after", "signature", "children", "values", "choices")

    def __init__(self, dropped: int, after: tuple, m: int):
        self.dropped = dropped
        self.after = after
        colors = tuple(cid for cid, _ in after)
        capped = tuple(
            min(m, sum(count for _, count in counts)) for _, counts in after
        )
        self.signature = (colors, capped)
        self.children: dict[tuple, object] = {}
        self.values: dict[tuple, int | float] = {}
        self.choices: dict[tuple, tuple] = {}


def _total(pending: tuple) -> int:
    return sum(count for _, counts in pending for _, count in counts)


def solve_brute(model: OptModel, max_states: int = 2_000_000) -> Solution:
    """Exact optimum of ``model`` by memoized exhaustive search.

    Raises :class:`SearchBudgetExceeded` past ``max_states`` memo entries
    — the backend is for the tiny instances of the ratio dashboard, the
    E-series and the differential tests, not for production workloads.
    """
    horizon, m, delta = model.horizon, model.m, model.delta
    arrivals = {
        rnd: tuple(sorted(by_color.items()))
        for rnd, by_color in model.arrivals.items()
    }
    nodes: dict[tuple, _Node] = {}
    candidate_table: dict[tuple, tuple] = {}
    exec_table: dict[tuple, tuple] = {}
    states = 0

    def node_at(rnd: int, pending: tuple) -> _Node:
        key = (rnd, pending)
        node = nodes.get(key)
        if node is None:
            dropped, after = _advance(pending, rnd, arrivals.get(rnd, ()))
            node = nodes[key] = _Node(dropped, after, m)
        return node

    def execute(after: tuple, vector: tuple) -> tuple:
        out = []
        for (cid, counts), copies in zip(after, vector):
            if copies:
                key = (counts, copies)
                left = exec_table.get(key)
                if left is None:
                    left = exec_table[key] = _execute_counts(counts, copies)
                if not left:
                    continue
                counts = left
            out.append((cid, counts))
        return tuple(out)

    def solve(rnd: int, config: tuple, node: _Node) -> int | float:
        nonlocal states
        if states >= max_states:
            raise SearchBudgetExceeded(
                f"brute backend exceeded {max_states} states on "
                f"{model.instance.name!r} (m={m}, horizon={horizon})"
            )
        key = (config, node.signature)
        table = candidate_table.get(key)
        if table is None:
            table = candidate_table[key] = _candidates(
                config, *node.signature, m, delta
            )
        vectors, entries = table

        # One child per execution vector: a node, or at the horizon the
        # number of jobs left pending (one drop each).
        nxt = rnd + 1
        children = node.children
        subs = []
        for vector in vectors:
            child = children.get(vector)
            if child is None:
                pending = execute(node.after, vector)
                child = children[vector] = (
                    _total(pending) if nxt == horizon else node_at(nxt, pending)
                )
            subs.append(child)

        dropped = node.dropped
        best = None
        best_post: tuple = config
        for post, added_cost, index in entries:
            child = subs[index]
            if nxt == horizon:
                sub = child
            else:
                sub = child.values.get(post)
                if sub is None:
                    sub = solve(nxt, post, child)
            total = dropped + added_cost + sub
            if best is None or total < best:
                best, best_post = total, post
        assert best is not None  # keeping the current config is always legal
        node.values[config] = best
        node.choices[config] = best_post
        states += 1
        return best

    if horizon:
        solve(0, (), node_at(0, ()))
    # ``solve`` reaches itself through its closure; dropping the name ends
    # that cycle, so the tables go when this call returns rather than at
    # the next cyclic garbage collection.
    del solve

    # Replay the stored decisions: the per-round plan and its integer
    # reconfiguration and drop counts.
    configs: list[tuple] = []
    reconfigs = drops = 0
    pending: tuple = ()
    config: tuple = ()
    for rnd in range(horizon):
        node = nodes[(rnd, pending)]
        post = node.choices[config]
        drops += node.dropped
        reconfigs += sum((Counter(post) - Counter(config)).values())
        colors = node.signature[0]
        pending = execute(node.after, tuple(post.count(cid) for cid in colors))
        config = post
        configs.append(tuple(model.color_of(cid) for cid in post))
    drops += _total(pending)

    return Solution(
        cost=reconfigs * delta + drops,
        configs=tuple(configs),
        backend="brute",
        states=states,
    )

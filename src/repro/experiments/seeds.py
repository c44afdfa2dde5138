"""Deterministic, order-independent seed derivation for parallel runs.

Parallel fan-out (thread pools, process pools, completion-order callbacks)
destroys reproducibility the moment two tasks share one RNG: results then
depend on which task drew first.  The fix is to give every task its *own*
seed, derived purely from ``(root_seed, label path)`` with a cryptographic
hash — never from shared state or call order — so any scheduler interleaving
produces bit-identical results.

This module is deliberately ``numpy``-free: derivation uses
:func:`hashlib.blake2b`, and :meth:`SeedStream.rng` hands back a plain
:class:`random.Random`.  The derived integers also work as seeds for
``numpy.random.default_rng`` (the workload generators' RNG).

Properties the test suite pins down (``tests/properties/test_seed_streams.py``):

- **determinism** — ``derive_seed(root, *path)`` is a pure function;
- **order independence** — deriving seed ``i`` never requires deriving
  seeds ``0..i-1`` first, so workers can derive out of order;
- **collision resistance** — distinct label paths map to distinct 63-bit
  seeds (collisions need ~2^31 paths by the birthday bound; the suite uses
  a few hundred);
- **framing** — ``("ab", "c")`` and ``("a", "bc")`` derive different seeds
  (each label is length- and type-prefixed before hashing).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

__all__ = ["derive_seed", "derive_unit", "SeedStream", "replication_seeds"]

#: Derived seeds are 63-bit so they stay nonnegative in a signed int64 —
#: safe for ``random.Random``, ``numpy.random.default_rng``, and JSON.
SEED_BITS = 63


def _token(label: object) -> bytes:
    """Canonical, framed encoding of one path label.

    The type tag keeps ``1`` and ``"1"`` distinct; the length prefix keeps
    ``("ab", "c")`` and ``("a", "bc")`` distinct.
    """
    data = f"{type(label).__name__}:{label!r}".encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def derive_seed(root_seed: int, *path: object) -> int:
    """Derive a child seed from ``root_seed`` and a path of labels.

    Pure function of its arguments: no global state, no call-order
    dependence.  Labels may be ints, strings, or anything with a stable
    ``repr`` (tuples of those included).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_token(int(root_seed)))
    for label in path:
        digest.update(_token(label))
    return int.from_bytes(digest.digest()[:8], "big") >> (64 - SEED_BITS)


def derive_unit(root_seed: int, *path: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a seed path.

    The same purity/order-independence guarantees as :func:`derive_seed`,
    rescaled to the unit interval.  Used wherever a reproducible "coin"
    is needed without threading an RNG through call sites — fault-plan
    probabilities and the shard workers' retry-backoff jitter both key
    off ``(seed, label path)`` so chaos runs and retry schedules are pure
    functions of the plan, not of wall-clock or interleaving.
    """
    return derive_seed(root_seed, *path) / float(1 << SEED_BITS)


@dataclass(frozen=True)
class SeedStream:
    """A named point in the seed-derivation tree.

    ``SeedStream(root).child("E3").seed(i)`` is the seed of replication
    ``i`` of experiment E3 — the same value in every process, at any level
    of parallelism, regardless of which replications ran before it.
    """

    root_seed: int
    path: tuple = ()

    def child(self, *labels: object) -> "SeedStream":
        """Descend into a sub-stream (e.g. per experiment, per sweep cell)."""
        return SeedStream(self.root_seed, self.path + labels)

    def seed(self, *labels: object) -> int:
        """The derived seed at ``path + labels``."""
        return derive_seed(self.root_seed, *self.path, *labels)

    def seeds(self, count: int, *labels: object) -> tuple[int, ...]:
        """``count`` independent seeds, indexed ``0..count-1``."""
        return tuple(self.seed(*labels, i) for i in range(count))

    def rng(self, *labels: object) -> random.Random:
        """A fresh ``random.Random`` seeded at ``path + labels``."""
        return random.Random(self.seed(*labels))


def replication_seeds(root_seed: int, label: object, count: int) -> tuple[int, ...]:
    """Seeds for ``count`` Monte-Carlo replications of one labelled study.

    Convenience wrapper used by the parallel runner and
    :func:`repro.experiments.montecarlo.replicate_seeded`.
    """
    return SeedStream(root_seed).child("replication", label).seeds(count)

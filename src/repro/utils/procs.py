"""Pipe-driven child processes and deterministic retry backoff.

The serve layer's per-shard workers (:mod:`repro.serve.workers`) need
low-level powers a ``ProcessPoolExecutor`` refuses to expose:

- a **duplex pipe** per worker so the parent can address a *specific*
  child and notice a *specific* death (EOF on recv, ``BrokenPipeError``
  on send);
- **SIGKILL + reap** for hung children (``multiprocessing.connection.wait``
  gives the parent a timeout, the kill reclaims the slot);
- a **polite shutdown** path (send the ``None`` sentinel, join, escalate
  to kill only if the child ignores it).

:class:`PipeWorker` is that lifecycle.  Scheduling — respawning a
*stateful* shard and replaying its journal — stays with the caller; only
the process-and-pipe plumbing lives here.

:func:`retry_backoff` is the deterministic delay between respawns:
exponential in the attempt number, scaled by a blake2b-derived jitter
factor that is a pure function of ``(seed, label, attempt)``.  Two runs
of the same plan back off identically; wall-clock enters only as actual
sleeping, never as a decision input.

:func:`derive_seed` and :func:`derive_unit` are the blake2b streams
behind that jitter and behind the fault plans' probabilistic coins
(:mod:`repro.faults.plan`): pure functions of ``(root seed, label
path)``, so no decision depends on call order or on shared RNG state
(``tests/properties/test_seed_streams.py`` pins purity, range, framing,
collision freedom and order independence).
"""

from __future__ import annotations

import hashlib
from typing import Callable

__all__ = ["PipeWorker", "derive_seed", "derive_unit", "retry_backoff"]

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


def derive_seed(root: int, *path: object) -> int:
    """Derive a child seed from a ``root`` seed and a path of labels.

    Pure function of its arguments: no global state, no call-order
    dependence.  Labels may be ints, strings, or anything with a stable
    ``repr`` (tuples of those included).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_token(int(root)))
    for label in path:
        digest.update(_token(label))
    return int.from_bytes(digest.digest()[:8], "big") >> (64 - SEED_BITS)


def derive_unit(root: int, *path: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a seed path.

    The same purity/order-independence guarantees as :func:`derive_seed`,
    rescaled to the unit interval.  Used wherever a reproducible "coin"
    is needed without threading an RNG through call sites — fault-plan
    probabilities and the shard workers' retry-backoff jitter both key
    off ``(seed, label path)`` so chaos runs and retry schedules are pure
    functions of the plan, not of wall-clock or interleaving.
    """
    return derive_seed(root, *path) / float(1 << SEED_BITS)


def retry_backoff(
    seed: int,
    label: str,
    attempt: int,
    base: float = 0.05,
    cap: float = 2.0,
) -> float:
    """Deterministic delay before retry number ``attempt`` (1-based).

    ``min(cap, base·2^(attempt-1))`` scaled by a jitter factor in
    ``[0.5, 1.0)`` drawn from the blake2b unit stream — deterministic per
    ``(seed, label, attempt)``, so retry schedules replay exactly while
    distinct labels still decorrelate.
    """
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    jitter = 0.5 + 0.5 * derive_unit(seed, "backoff", label, attempt)
    return raw * jitter


class PipeWorker:
    """One child process driven over a duplex pipe.

    ``target(conn, *args)`` runs in the child with the child end of the
    pipe; the parent keeps the other end as :attr:`conn`.  The child's
    loop is expected to treat a received ``None`` as the shutdown
    sentinel (the shard worker main does).
    """

    def __init__(self, ctx, target: Callable, args: tuple = ()):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=target, args=(child_conn, *args), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL + reap; safe on an already-dead process."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Polite shutdown; falls back to kill if the worker won't exit."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass

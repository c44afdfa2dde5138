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

:func:`retry_backoff` is the delay ladder both the respawn loop and
``repro loadgen``'s connect retry sleep on: exponential in the attempt
number, capped, with no jitter, so a failing run takes the same time on
every run.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["PipeWorker", "retry_backoff"]


def retry_backoff(attempt: int, base: float = 0.05, cap: float = 2.0) -> float:
    """Delay before retry number ``attempt`` (1-based):
    ``min(cap, base·2^(attempt-1))``."""
    return min(cap, base * (2.0 ** (attempt - 1)))


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

"""The injection point: where a fault plan acts on a running worker op.

The serve shard worker loop calls :func:`maybe_inject` once per op,
right before doing any real work.  With no plan installed (the default)
that is one module-attribute read and a ``None`` check — chaos machinery
costs nothing when it is off.

What each kind does at the injection point:

- ``raise`` — raise :class:`FaultInjected`; the worker dies and the
  parent respawns it.
- ``hang`` — sleep ``hang_seconds`` (the parent's per-op timeout is
  expected to kill the worker first), then raise.
- ``kill`` — ``SIGKILL`` the current process: the hard failure mode
  (OOM-killer, segfault) that exercises respawn and journal replay.

Plans act only in the process that installed them
(:func:`install_plan`); the shard-worker bootstrap installs the plan the
parent ships it, so ``hang`` and ``kill`` never reach the server process.
"""

from __future__ import annotations

import os
import signal
import time

from repro.faults.plan import FaultPlan

__all__ = ["FaultInjected", "install_plan", "maybe_inject"]


class FaultInjected(RuntimeError):
    """Raised by an injected ``raise`` fault (or a ``hang`` that ran out)."""


_installed: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-locally (None deactivates); returns the old one."""
    global _installed
    previous = _installed
    _installed = plan
    return previous


def maybe_inject(label: str, attempt: int = 0) -> None:
    """Consult the installed plan for ``(label, attempt)`` and act on a match.

    Returns when nothing fires; raises, hangs, or kills otherwise.
    """
    if _installed is None:
        return
    spec = _installed.decide(label, attempt)
    if spec is None:
        return
    if spec.kind == "raise":
        raise FaultInjected(f"injected raise for {label!r} attempt {attempt}")
    if spec.kind == "hang":
        time.sleep(spec.hang_seconds)
        raise FaultInjected(
            f"injected hang for {label!r} attempt {attempt} elapsed "
            f"after {spec.hang_seconds}s"
        )
    # kind == "kill": the OOM-killer/segfault stand-in.  SIGKILL cannot be
    # caught, so the parent sees exactly what a real worker death looks
    # like: a dead process and a half-open pipe.
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable: SIGKILL delivered to self")

"""In-memory span tracer: wraps calls into each layer's functions.

A span is one call of a wrapped function.  The tracer keeps a stack of
open spans, so a span's *self* time is its duration minus the time its
nested spans took; self times of every span with the same name are
summed.  Nothing is written while the program runs: :meth:`snapshot`
returns the totals and the caller writes them out at the end.

Wrappers replace module or class attributes; install them before the
code under test looks the attributes up, and :meth:`uninstall` restores
the originals.  Targets that the program does not have (a module or
class a later version removed) are skipped, so the tracer degrades to
fewer layers instead of failing.

The serve layers route spans into one of two buckets: spans of frames
that belong to a timed round (``submit`` and ``tick``) count, spans of
every other frame (``hello``, ``stats``, ...) are kept apart, because
the end-to-end time they are compared with covers rounds only.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable

#: frame types whose handling is part of a client-observed round.
ROUND_FRAMES = frozenset({"submit", "tick"})


class Tracer:
    def __init__(self) -> None:
        self.counted: dict[str, float] = defaultdict(float)
        self.ignored: dict[str, float] = defaultdict(float)
        #: where finished spans land: ``counted`` unless a serve frame
        #: outside the rounds is being handled.
        self.bucket = self.counted
        #: calls of counted spans, per name.
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._last_desired: dict[int, object] = {}

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable[[object, tuple], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(result, args)`` runs when a call returns, after the span
        closed and before its time is booked; it may update counters or
        switch the bucket the span lands in.
        """
        original = getattr(owner, attr)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            returned = False
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if returned and after is not None:
                    after(result, args)
                bucket = tracer.bucket
                bucket[name] += elapsed - frame[0]
                if bucket is tracer.counted:
                    tracer.calls[name] += 1
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        # An inherited method is shadowed, not replaced: undo by deleting.
        restore_by_set = not isinstance(owner, type) or attr in vars(owner)
        self._patches.append((owner, attr, original, restore_by_set))
        setattr(owner, attr, traced)

    def wrap_path(self, module: str, path: str, name: str, after=None) -> bool:
        """:meth:`wrap` ``module.path`` (``Class.method`` or ``function``);
        False, and nothing wrapped, when the target does not exist."""
        try:
            owner: object = importlib.import_module(module)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if not hasattr(owner, attr):
            return False
        self.wrap(owner, attr, name, after)
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, restore_by_set = self._patches.pop()
            if restore_by_set:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once as a span (for calls the benchmark makes)."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            self.bucket[name] += elapsed - frame[0]
            if self.bucket is self.counted:
                self.calls[name] += 1

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span (a forked worker starts with a clean slate)."""
        self.counted.clear()
        self.ignored.clear()
        self.bucket = self.counted
        self.calls.clear()
        self.counters.clear()
        self._stack.clear()
        self._last_desired.clear()

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.counted),
            "ignored_s": dict(self.ignored),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

    # -- layer installers -----------------------------------------------------

    def install_core(self) -> None:
        """Engine layers: the round loop, pending store and resource bank."""
        core = "repro.core"
        self.wrap_path(f"{core}.simulator", "Simulator.step", "core.step_other")
        self.wrap_path(f"{core}.array_engine", "ArraySimulator.step", "core.step_other")
        for module, cls in (
            (f"{core}.pending", "PendingStore"),
            (f"{core}.array_engine", "ArrayPendingStore"),
        ):
            self.wrap_path(module, f"{cls}.drop_expired", "core.pending.drop_expired")
            self.wrap_path(module, f"{cls}.add", "core.pending.add")
            self.wrap_path(module, f"{cls}.execute_one", "core.pending.execute_one")
        # The array engine adds presorted runs and pops execution batches
        # straight from its buckets.
        self.wrap_path(f"{core}.array_engine", "ArrayPendingStore.add_run", "core.pending.add")
        self.wrap_path(f"{core}.array_engine", "ColorBucket.pop_front_n", "core.pending.execute_one")
        self.wrap_path(
            f"{core}.resources",
            "ResourceBank.reconfigure_to",
            "core.resources.reconfigure_to",
            after=self._count_noop,
        )

    def _count_noop(self, result, args) -> None:
        self.counters["core.resources.calls"] += 1
        if not result:
            self.counters["core.resources.noops"] += 1

    def install_policy(self, policy_cls: type) -> None:
        """The policy's decision and its phase hooks (only those it
        overrides: wrapping an inherited no-op hook would change what the
        engines see)."""
        from repro.core.simulator import Policy

        self.wrap(
            policy_cls,
            "desired_configuration",
            "policies.desired_configuration",
            after=self._count_desired,
        )
        for hook in ("on_drop_phase", "on_arrival_phase", "on_execution_phase"):
            if getattr(policy_cls, hook) is not getattr(Policy, hook):
                self.wrap(policy_cls, hook, "policies.hooks")

    def _count_desired(self, result, args) -> None:
        # A cached decision is handed back as the very same list object.
        key = id(args[0])
        self.counters["policies.desired_calls"] += 1
        if result is self._last_desired.get(key):
            self.counters["policies.desired_hits"] += 1
        self._last_desired[key] = result

    def install_serve(self) -> None:
        """Server-side serve layers (the launcher calls this)."""
        server = "repro.serve.server"
        self.wrap_path(server, "decode_frame", "serve.protocol.decode", after=self._frame_in)
        self.wrap_path(server, "job_from_wire", "serve.protocol.decode")
        self.wrap_path(server, "encode_frame", "serve.protocol.encode", after=self._frame_out)
        session = "repro.serve.session"
        self.wrap_path(session, "ShardedSession.validate", "serve.session.validate")
        self.wrap_path(session, "ShardedSession.commit", "serve.session.commit")
        self.wrap_path(session, "ShardedSession.tick", "serve.session.tick")
        self.wrap_path(session, "SessionShard.step", "serve.session.tick")
        self.wrap_path(session, "make_simulator", "core.make_simulator")
        workers = "repro.serve.workers"
        self.wrap_path(workers, "WorkerShardedSession.validate", "serve.workers.validate")
        self.wrap_path(workers, "WorkerShardedSession.commit", "serve.workers.commit")
        self.wrap_path(workers, "WorkerShardedSession.tick", "serve.workers.tick")
        tenants = "repro.serve.tenants"
        for method in ("plan", "debit", "refill"):
            self.wrap_path(tenants, f"ShardTenantMeter.{method}", "serve.tenants.meter")
        self.wrap_path(tenants, "TenantDirectory.note", "serve.tenants.meter")
        self.wrap_path("repro.utils.jsonl", "JsonlJournal.append", "utils.jsonl.append")
        # Spans start in the ignored bucket: start-up work is not a round.
        self.bucket = self.ignored

    def _frame_in(self, frame, args) -> None:
        self.bucket = (
            self.counted if frame.get("type") in ROUND_FRAMES else self.ignored
        )
        if self.bucket is self.counted:
            self.counters["serve.protocol.bytes_in"] += len(args[0])

    def _frame_out(self, payload, args) -> None:
        if self.bucket is self.counted:
            self.counters["serve.protocol.bytes_out"] += len(payload)

    def install_opt(self) -> None:
        """Exact-optimum layers as the ratio dashboard calls them."""
        backends = "repro.opt.backends"
        self.wrap_path(backends, "compile_model", "opt.compile")
        self.wrap_path(backends, "solve_brute", "opt.solve", after=self._count_states)
        self.wrap_path(backends, "decode_solution", "opt.decode")
        ratios = "repro.opt.ratios"
        self.wrap_path(ratios, "solve_opt", "opt.solve")
        self.wrap_path(ratios, "simulate", "opt.policy_runs")
        for generator in ("uniform_workload", "poisson_workload", "lb_adversary_workload"):
            self.wrap_path(ratios, generator, "workloads.generate")

    def _count_states(self, solution, args) -> None:
        states = getattr(solution, "states", None)
        if states:
            self.counters["opt.states"] += states

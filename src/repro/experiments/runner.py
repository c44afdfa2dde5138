"""Parallel experiment engine: one process pool, request-order results.

This module fans registry experiments out over one stdlib process pool
(:func:`pool_map`, which sweep grids share) while keeping two
guarantees:

1. **Determinism** — every experiment is a pure function of its scale,
   and results are reassembled in *request* order, never completion
   order.  ``jobs=1`` and ``jobs=N`` therefore produce bit-identical
   payloads.
2. **Observability** — every task yields a :class:`TaskRecord` (wall time,
   result digest, worker pid), and per-worker engine telemetry snapshots
   merge into ``report.telemetry``.

Every cell is computed by the code that reports it: nothing is stored
between runs.  Workers receive only picklable primitives (experiment id,
scale); the experiment callable is looked up in the registry *inside*
the worker, so nothing fragile crosses the process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.reporting import Table, stats_table
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.telemetry import TelemetryRecorder, merge_snapshots
from repro.telemetry.recorder import get_recorder, set_recorder

__all__ = [
    "TaskRecord",
    "RunReport",
    "pool_map",
    "run_parallel",
    "resolve_jobs",
]


@dataclass(frozen=True)
class TaskRecord:
    """Per-task execution metrics (one row of the ``--stats`` table)."""

    experiment_id: str
    scale: str
    wall_time: float
    rounds: int | None
    checks_passed: int
    checks_total: int
    worker_pid: int
    #: result fingerprint (sha256 of the canonical payload).
    fingerprint: str

    def as_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "wall_time_s": round(self.wall_time, 4),
            "rounds": self.rounds,
            "checks": f"{self.checks_passed}/{self.checks_total}",
            "digest": self.fingerprint[:12],
            "worker_pid": self.worker_pid,
        }


@dataclass
class RunReport:
    """Everything one ``run_parallel`` invocation produced."""

    results: dict[str, ExperimentResult]
    records: list[TaskRecord] = field(default_factory=list)
    jobs: int = 1
    #: merged per-worker telemetry snapshot (empty unless collection was on).
    telemetry: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(result.all_passed for result in self.results.values())

    @property
    def failures(self) -> int:
        return sum(0 if result.all_passed else 1 for result in self.results.values())

    def stats_table(self) -> Table:
        wall = sum(r.wall_time for r in self.records)
        title = (
            f"runner stats — jobs={self.jobs}, tasks {len(self.records)}, "
            f"task wall time {wall:.2f}s"
        )
        return stats_table((r.as_dict() for r in self.records), title=title)

    def stats_payload(self) -> dict:
        """JSON-ready stats document.

        This method only *builds* the document — it never touches the
        filesystem.  Callers choose the destination explicitly, either via
        :meth:`write_stats` or the CLI's ``repro all --stats-out PATH``
        (default: ``benchmarks/output/local/runner_stats.json``).
        """
        payload = {
            "jobs": self.jobs,
            "tasks": len(self.records),
            "task_wall_time_s": round(sum(r.wall_time for r in self.records), 4),
            "records": [r.as_dict() for r in self.records],
        }
        if self.telemetry:
            payload["telemetry"] = self.telemetry
        return payload

    def write_stats(self, path: str | os.PathLike) -> "os.PathLike | str":
        """Write :meth:`stats_payload` as JSON to ``path`` (dirs created)."""
        import json
        from pathlib import Path

        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(json.dumps(self.stats_payload(), indent=2) + "\n")
        return destination


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def pool_map(fn: Callable, tasks: Sequence[tuple], jobs: int) -> list:
    """``[fn(*task) for task in tasks]`` over ``jobs`` worker processes.

    ``jobs <= 1`` (or a single task) runs inline — no pool, no pickling —
    which is the reference every parallel run must match bit-for-bit.
    Otherwise ``fn`` must be picklable (module-level) and the tasks go to
    a :class:`~concurrent.futures.ProcessPoolExecutor`; results come back
    in request order.  Unlike ``Executor.map``, every task runs to
    completion before the first failure (in request order) is raised.

    Workers are spawned, not forked: each starts from a fresh import, so
    nothing but the task arguments crosses, on every platform, and no
    thread the parent holds is forked into a child.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
    return [future.result() for future in futures]


def _rounds_of(result: ExperimentResult) -> int | None:
    """Best-effort "rounds simulated" from a result's ``rounds`` column.

    Unparseable cells in a ``rounds`` column are skipped (counted on
    ``repro_rounds_unparsed_cells_total`` when telemetry is on) and the
    *partial* sum over the parseable cells is returned — one bad cell no
    longer discards the whole column.  ``None`` only when nothing parsed.
    """
    try:
        idx = result.table.columns.index("rounds")
    except ValueError:
        return None
    total = 0
    parsed = 0
    skipped = 0
    for row in result.table.rows:
        try:
            total += int(float(row[idx]))
            parsed += 1
        except (ValueError, TypeError, IndexError):
            skipped += 1
    if skipped:
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count(
                "repro_rounds_unparsed_cells_total",
                skipped,
                experiment=result.experiment_id,
            )
    return total if parsed else None


def _execute_experiment(
    experiment_id: str,
    scale: str,
    collect_telemetry: bool = False,
) -> tuple:
    """Worker body: run one experiment and time it.

    Module-level on purpose — the process pool pickles the callable by
    qualified name.  Returns ``(result, wall, pid, telemetry_snapshot)``;
    the snapshot is ``{}`` unless ``collect_telemetry`` — snapshots are
    plain dicts, so they cross the process boundary by value and the
    parent can merge them.
    """
    started = time.perf_counter()
    recorder = TelemetryRecorder() if collect_telemetry else None
    previous = set_recorder(recorder) if recorder is not None else None
    try:
        result = registry.run_experiment(experiment_id, scale)
    finally:
        if recorder is not None:
            set_recorder(previous)
    wall = time.perf_counter() - started
    snapshot: dict = {}
    if recorder is not None:
        recorder.count("repro_runner_tasks_total")
        recorder.observe("repro_task_seconds", wall, experiment=experiment_id)
        snapshot = recorder.snapshot()
    return result, wall, os.getpid(), snapshot


def run_parallel(
    experiment_ids: Sequence[str] | None = None,
    scale: str = "quick",
    jobs: int = 1,
    collect_telemetry: bool = False,
) -> RunReport:
    """Run experiments across the process pool; results in *request* order.

    ``experiment_ids`` defaults to the full registry in its canonical
    order.  ``jobs=1`` runs inline (see :func:`pool_map`).  An experiment
    that raises propagates its exception once every other cell is done.

    ``collect_telemetry`` installs a per-worker
    :class:`~repro.telemetry.TelemetryRecorder` around each task and merges
    the returned snapshots (in request order) plus the parent's recorder
    into ``report.telemetry``; the engine counters in the merge are
    identical at any job count — only wall-time histograms vary.
    """
    experiments = registry.EXPERIMENTS
    ids = list(experiment_ids) if experiment_ids is not None else list(experiments)
    for eid in ids:
        if eid.upper() not in experiments:
            raise KeyError(
                f"unknown experiment {eid!r}; choose from {sorted(experiments)}"
            )
    ids = [eid.upper() for eid in ids]
    jobs = resolve_jobs(jobs)

    parent_recorder = TelemetryRecorder() if collect_telemetry else None
    previous_recorder = (
        set_recorder(parent_recorder) if parent_recorder is not None else None
    )
    try:
        outcomes = pool_map(
            _execute_experiment,
            [(eid, scale, collect_telemetry) for eid in ids],
            jobs,
        )
        report = RunReport(results={}, jobs=jobs)
        snapshots = []
        for eid, (result, wall, pid, snap) in zip(ids, outcomes):
            snapshots.append(snap)
            report.results[eid] = result
            report.records.append(TaskRecord(
                experiment_id=eid,
                scale=scale,
                wall_time=wall,
                rounds=_rounds_of(result),
                checks_passed=sum(1 for c in result.checks if c.passed),
                checks_total=len(result.checks),
                worker_pid=pid,
                fingerprint=result.fingerprint(),
            ))
        if collect_telemetry:
            snapshots.append(parent_recorder.snapshot())
            report.telemetry = merge_snapshots(snapshots)
        return report
    finally:
        if parent_recorder is not None:
            set_recorder(previous_recorder)


"""Parameter-sweep infrastructure.

A :class:`Sweep` runs a factory × solver grid and collects a long-form
result list plus pivoted tables — the workhorse behind custom studies like
``examples/sweep_study.py``.  Deliberately simple: a sweep point is a dict
of parameters; the user supplies ``build(point) -> Instance`` and
``run(instance, point) -> cost-like mapping``.

Execution goes through the runner's process pool
(:func:`repro.experiments.runner.pool_map`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.analysis.reporting import Table
from repro.core.request import Instance
from repro.experiments.runner import pool_map, resolve_jobs

__all__ = ["SweepResult", "grid", "run_sweep"]


@dataclass
class SweepResult:
    """Long-form sweep output: one row per (point, measurement)."""

    rows: list[dict] = field(default_factory=list)

    def pivot(
        self,
        row_key: str,
        col_key: str,
        value_key: str,
        title: str = "",
    ) -> Table:
        """Pivot the long-form rows into a 2-D table."""
        row_values = sorted({r[row_key] for r in self.rows}, key=_sortable)
        col_values = sorted({r[col_key] for r in self.rows}, key=_sortable)
        table = Table(
            [row_key] + [f"{col_key}={v}" for v in col_values], title=title
        )
        lookup = {
            (r[row_key], r[col_key]): r[value_key] for r in self.rows
        }
        for rv in row_values:
            table.add_row(rv, *[lookup.get((rv, cv), "-") for cv in col_values])
        return table

    def column(self, key: str) -> list:
        return [r[key] for r in self.rows]

    def where(self, **conditions) -> "SweepResult":
        out = SweepResult()
        out.rows = [
            r for r in self.rows
            if all(r.get(k) == v for k, v in conditions.items())
        ]
        return out


def _sortable(value):
    return (0, value) if isinstance(value, (int, float)) else (1, str(value))


def grid(**axes: Iterable) -> list[dict]:
    """Cartesian product of named axes as a list of point dicts."""
    names = list(axes)
    points = []
    for combo in itertools.product(*(list(axes[name]) for name in names)):
        points.append(dict(zip(names, combo)))
    return points


def _sweep_cell(
    build: Callable[[Mapping], Instance],
    run: Callable[[Instance, Mapping], Mapping],
    point: Mapping,
) -> dict:
    """One grid cell: build the instance, measure it, return the long row.

    Module-level so the process pool can ship it to worker processes.
    """
    instance = build(point)
    row = dict(point)
    row.update(run(instance, point))
    return row


def run_sweep(
    points: Iterable[Mapping],
    build: Callable[[Mapping], Instance],
    run: Callable[[Instance, Mapping], Mapping],
    jobs: int = 1,
) -> SweepResult:
    """Run ``build`` then ``run`` at every point; collect long-form rows.

    ``jobs`` is resolved like ``repro all --jobs`` (``0`` = one worker per
    core).  With more than one job the grid fans out over the process
    pool; rows still come back in *point* order, so the result is
    identical to a serial run.  ``build`` and ``run`` must then be
    picklable (module-level functions or ``functools.partial`` of them),
    since each cell crosses a process boundary.  A cell that raises
    propagates after every other cell is done.
    """
    rows = pool_map(
        _sweep_cell,
        [(build, run, dict(point)) for point in points],
        resolve_jobs(jobs),
    )
    return SweepResult(rows=rows)

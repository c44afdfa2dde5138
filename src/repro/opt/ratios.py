"""Empirical competitive-ratio dashboard: measured ``policy_cost / OPT`` cells.

The paper's guarantees are competitive ratios; this module turns them
into *measurements*.  Each cell runs every dashboard policy on one
workload with ``n`` online resources, solves the exact offline optimum
with ``m = n`` resources through :func:`repro.opt.backends.solve_opt`
(so ``OPT <= policy_cost`` is a theorem, and any violation is a solver
bug the checks below would surface), and records the ratio.

Cell schema (one per workload, inside the ``bench-opt-v1`` payload)::

    {
      "workload":      dashboard case name (stable cache identity),
      "instance":      generated instance name,
      "n", "m":        online / offline resource counts (equal),
      "delta":         reconfiguration cost,
      "horizon":       solve horizon (== the sequence horizon here),
      "jobs":          number of jobs,
      "opt_cost":      exact optimum,
      "opt_backend":   backend that produced it ("brute"),
      "opt_states":    brute memo size,
      "opt_reconfigs": reconfiguration count of the decoded optimum,
      "opt_validated": True — construction is validation (repro.opt.decode),
      "opt_digest":    engine-free schedule digest of the decoded optimum,
      "adversary":     True for the lb-adversary cells,
      "cached":        served from the result cache,
      "policy_costs":  {policy: total_cost},
      "ratios":        {policy: policy_cost / opt_cost, 4 decimals}
    }

Cells are cached through :class:`repro.experiments.cache.ResultCache`
under ``kind="opt-ratio"`` with the opt backend and solve horizon folded
into the key — a cell solved under another backend name or a truncated
horizon can never serve a stale OPT from cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro import __version__
from repro.analysis.reporting import Table
from repro.core.request import Instance
from repro.core.simulator import simulate
from repro.experiments.cache import ResultCache, cache_key
from repro.opt.backends import resolve_backend, solve_opt
from repro.policies import make_policy
from repro.telemetry.recorder import Recorder, get_recorder
from repro.workloads import (
    lb_adversary_workload,
    poisson_workload,
    uniform_workload,
)

__all__ = [
    "BENCH_FORMAT",
    "RATIO_POLICIES",
    "RatioCase",
    "ratio_cases",
    "ratio_dashboard",
    "render_dashboard",
    "write_bench",
]

BENCH_FORMAT = "bench-opt-v1"

#: Dashboard policies.  All three must hold ``OPT <= cost`` on every cell
#: (the acceptance contract); dlru-edf needs ``n`` divisible by 4, which
#: fixes the dashboard at n = m = 4.
RATIO_POLICIES: tuple[str, ...] = ("dlru", "edf", "dlru-edf")


@dataclass(frozen=True)
class RatioCase:
    """One dashboard workload: a builder plus its resource counts."""

    name: str
    build: Callable[[], Instance]
    n: int = 4
    m: int = 4
    adversary: bool = False


def ratio_cases(scale: str = "quick") -> tuple[RatioCase, ...]:
    """The dashboard's workload set, exact-solver sized.

    ``full`` adds longer horizons and a second seed; both scales keep
    every instance within a few seconds of brute-force solve time.
    """
    cases = [
        RatioCase(
            "uniform-small",
            lambda: uniform_workload(
                num_colors=3, horizon=8, delta=2, seed=0, jobs_per_round=1,
                min_exp=0, max_exp=2, name="uniform-small",
            ),
        ),
        RatioCase(
            "poisson-small",
            lambda: poisson_workload(
                num_colors=3, horizon=8, delta=2, seed=1, rate=0.35,
                min_exp=0, max_exp=2, name="poisson-small",
            ),
        ),
        RatioCase(
            "lb-adversary-dlru",
            lambda: lb_adversary_workload(kind="dlru", delta=2, seed=0),
            adversary=True,
        ),
        RatioCase(
            "lb-adversary-edf",
            lambda: lb_adversary_workload(kind="edf", delta=2, seed=0),
            adversary=True,
        ),
    ]
    if scale == "full":
        cases += [
            RatioCase(
                "uniform-mid",
                lambda: uniform_workload(
                    num_colors=3, horizon=12, delta=2, seed=2,
                    jobs_per_round=1, min_exp=0, max_exp=2,
                    name="uniform-mid",
                ),
            ),
            RatioCase(
                "lb-adversary-edf-long",
                lambda: lb_adversary_workload(
                    kind="edf", delta=2, seed=1, horizon=13,
                ),
                adversary=True,
            ),
        ]
    return tuple(cases)


def _compute_cell(
    case: RatioCase,
    *,
    backend: str,
    engine: str,
    max_states: int,
) -> dict:
    instance = case.build()
    opt = solve_opt(
        instance, case.m, backend=backend, max_states=max_states
    )
    cell = {
        "workload": case.name,
        "instance": instance.name,
        "n": case.n,
        "m": case.m,
        "delta": instance.delta,
        "horizon": opt.horizon,
        "jobs": instance.sequence.num_jobs,
        "opt_cost": opt.cost,
        "opt_backend": opt.backend,
        "opt_states": opt.states,
        "opt_reconfigs": opt.reconfig_count,
        "opt_validated": opt.validated,
        "opt_digest": opt.digests["run"],
        "adversary": case.adversary,
        "cached": False,
        "policy_costs": {},
        "ratios": {},
    }
    for policy_name in RATIO_POLICIES:
        run = simulate(
            instance,
            make_policy(policy_name, instance.delta),
            n=case.n,
            record_events=False,
            engine=engine,
        )
        cost = run.total_cost
        cell["policy_costs"][policy_name] = cost
        cell["ratios"][policy_name] = (
            round(cost / opt.cost, 4) if opt.cost else None
        )
    return cell


def ratio_dashboard(
    scale: str = "quick",
    *,
    backend: str | None = None,
    engine: str = "incremental",
    use_cache: bool = True,
    cache_dir: str | Path | None = None,
    max_states: int = 2_000_000,
    telemetry: "Recorder | None" = None,
) -> dict:
    """Compute (or restore from cache) every ratio cell; return the payload.

    The payload's ``checks`` record the acceptance contract:
    ``all_validated`` (every OPT passed the independent checker + digest),
    ``opt_leq_policies`` (the optimum never exceeds any policy's cost),
    and ``adversary_gap`` (at least one adversary cell with a ratio
    strictly above 1).  ``ok`` is their conjunction — CI gates on it.
    """
    telem = telemetry if telemetry is not None else get_recorder()
    resolved = resolve_backend(backend)
    cache = ResultCache(cache_dir) if use_cache else None
    cells: list[dict] = []
    for case in ratio_cases(scale):
        instance = case.build()
        key = cache_key(
            f"ratio:{case.name}",
            scale,
            kind="opt-ratio",
            extra={
                "backend": resolved,
                "horizon": instance.sequence.horizon,
                "n": case.n,
                "m": case.m,
                "delta": instance.delta,
                "engine": engine,
                "policies": list(RATIO_POLICIES),
            },
        )
        cell = cache.get(key) if cache is not None else None
        if cell is not None:
            cell = dict(cell)
            cell["cached"] = True
            telem.count("repro_opt_ratio_cells_total", outcome="cached")
        else:
            cell = _compute_cell(
                case, backend=resolved, engine=engine, max_states=max_states
            )
            if cache is not None:
                cache.put(key, cell, meta={"workload": case.name})
            telem.count("repro_opt_ratio_cells_total", outcome="computed")
        cells.append(cell)

    ratios = [
        r
        for cell in cells
        for r in cell["ratios"].values()
        if r is not None
    ]
    checks = {
        "all_validated": all(cell["opt_validated"] for cell in cells),
        "opt_leq_policies": all(
            cost >= cell["opt_cost"]
            for cell in cells
            for cost in cell["policy_costs"].values()
        ),
        "adversary_gap": any(
            cell["adversary"]
            and any(r is not None and r > 1 for r in cell["ratios"].values())
            for cell in cells
        ),
    }
    return {
        "format": BENCH_FORMAT,
        "version": __version__,
        "scale": scale,
        "backend": resolved,
        "engine": engine,
        "policies": list(RATIO_POLICIES),
        "cells": cells,
        "max_ratio": max(ratios) if ratios else None,
        "checks": checks,
        "ok": all(checks.values()),
    }


def render_dashboard(payload: Mapping) -> str:
    """Human-readable table plus the check line."""
    table = Table(
        ["workload", "n", "jobs", "OPT", "backend"]
        + [f"{p} (×OPT)" for p in payload["policies"]],
        title=(
            f"competitive ratios — scale={payload['scale']}, "
            f"backend={payload['backend']}"
        ),
    )
    for cell in payload["cells"]:
        row = [
            cell["workload"] + (" *" if cell["cached"] else ""),
            cell["n"],
            cell["jobs"],
            cell["opt_cost"],
            cell["opt_backend"],
        ]
        for policy_name in payload["policies"]:
            cost = cell["policy_costs"][policy_name]
            ratio = cell["ratios"][policy_name]
            row.append(
                f"{cost} ({ratio:.2f}×)" if ratio is not None else f"{cost} (—)"
            )
        table.add_row(*row)
    checks = payload["checks"]
    lines = [table.render(), ""]
    for name, passed in checks.items():
        lines.append(f"  [{'ok' if passed else 'FAIL'}] {name}")
    if payload["max_ratio"] is not None:
        lines.append(f"  max ratio: {payload['max_ratio']:.2f}×")
    lines.append("  (* = cell served from the result cache)")
    return "\n".join(lines)


def write_bench(payload: Mapping, path: str | Path) -> Path:
    """Write the ``bench-opt-v1`` artifact (parents created)."""
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out

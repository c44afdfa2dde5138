"""``opt-ratio``: the exact-optimum dashboard, uncached.

Each pass is one ``ratio_dashboard(scale="full", backend="brute",
use_cache=False)``: six fixed cells, each compiled, solved exactly by the
brute-force DP, decoded and replay-validated, then compared with three
online policies.  The cells are the dashboard's own fixed instances, so
the seed does not change them.  A cell is this workload's "round": its
time runs from one ``solve_opt`` call to the next (the last cell ends
with the pass), and a pass is the sum of its cells.  Cells are few and
of very different sizes, so the round quantiles are taken over the six
per-cell medians: p50 sits between the third and fourth cell, p90 is the
largest cell.

Run as a script, it is one of the child roles::

    python3 perfbench/opt_bench.py timed <seconds>
    python3 perfbench/opt_bench.py traced
"""

from __future__ import annotations

import sys

import harness
from harness import emit, fresh_heap, now

SCALE = "quick" if harness.SMOKE else "full"
BACKEND = "brute"
SETUP_REPEATS = 5
MIN_PASSES = 2


def _dashboard() -> dict:
    from repro.opt.ratios import ratio_dashboard

    return ratio_dashboard(scale=SCALE, backend=BACKEND, use_cache=False)


def _cell_checks(payload: dict) -> list[bool]:
    """Per cell: validated, and OPT no worse than any policy."""
    return [
        bool(cell["opt_validated"])
        and all(cost >= cell["opt_cost"] for cost in cell["policy_costs"].values())
        for cell in payload["cells"]
    ]


def _digest(payload: dict) -> list:
    # Not opt_digest: it covers job uids, which differ between passes.
    return [(c["workload"], c["opt_cost"], c["opt_states"], c["opt_reconfigs"],
             c["policy_costs"]) for c in payload["cells"]]


# -- child roles ----------------------------------------------------------------


def timed(seconds: float) -> dict:
    from repro.opt import ratios

    cal = harness.Calibrator()
    setups = []
    for _ in range(SETUP_REPEATS):
        fresh_heap()
        cal.rebase()
        start = now()
        for case in ratios.ratio_cases(SCALE):
            case.build()
        raw = now() - start
        setups.append(raw * cal.scale(raw))

    # Each cell runs from its solve_opt call to the next one.  A cell can
    # last seconds, so the CPU is probed from a timer while it runs.
    bounds: list[float] = []
    solve_opt = ratios.solve_opt

    def marked(*args, **kwargs):
        bounds.append(now())
        return solve_opt(*args, **kwargs)

    ratios.solve_opt = marked
    walls, cells, cell_ok, digests, jobs = [], [], [], [], 0
    sampler = harness.Sampler()
    try:
        with sampler:
            while len(walls) < MIN_PASSES or sum(walls) < seconds:
                fresh_heap()
                bounds.clear()
                payload = _dashboard()
                bounds.append(now())
                pass_cells = [sampler.scaled(a, b) for a, b in zip(bounds, bounds[1:])]
                cells.extend(pass_cells)
                walls.append(sum(pass_cells))
                cell_ok.extend(_cell_checks(payload))
                digests.append(_digest(payload))
                jobs += sum(cell["jobs"] for cell in payload["cells"])
    finally:
        ratios.solve_opt = solve_opt
    return {
        "setup_s": setups,
        "walls_s": walls,
        "cells_s": cells,
        "cell_ok": cell_ok,
        "same_every_pass": all(d == digests[0] for d in digests),
        "jobs": jobs,
        "cpu_factor": harness.PROBE_REFERENCE_S * len(sampler.probes)
        / sum(p[2] for p in sampler.probes),
        "peak_rss_mb": harness.peak_rss_mib(),
    }


def traced() -> dict:
    from tracer import Tracer

    _dashboard()  # warm-up: first-call imports would bill the first pass
    tracer = Tracer()
    tracer.install_opt()
    fresh_heap()
    start = now()
    payload = _dashboard()
    e2e = now() - start
    tracer.uninstall()
    fresh_heap()
    start = now()
    plain = _dashboard()
    wall_off = now() - start
    return {
        "snapshot": tracer.snapshot(),
        "e2e_s": e2e,
        "wall_untraced_s": wall_off,
        "cell_ok": _cell_checks(payload) + _cell_checks(plain),
        "same": _digest(plain) == _digest(payload),
        "cells": len(payload["cells"]),
    }


# -- the benchmark side -----------------------------------------------------------


def _child(work, *args, timeout: float = 150.0) -> dict:
    script = str(harness.BENCH_DIR / "opt_bench.py")
    return harness.run_child([script, *map(str, args)], work, timeout)


def measure(workload: str, seed: int, seconds: float, work) -> dict:
    run = _child(work, "timed", seconds)
    checks = [
        ("every cell validated with OPT <= every policy", all(run["cell_ok"])),
        ("every pass gives the same cells", run["same_every_pass"]),
    ]
    # Cells differ in size by orders of magnitude, so a quantile over all
    # cell samples jumps between cells; take each cell's median over the
    # passes, then the quantiles over the cells.
    per_pass = len(run["cells_s"]) // len(run["walls_s"])
    cells = [
        harness.median(run["cells_s"][i::per_pass]) for i in range(per_pass)
    ]
    lat = harness.latency_stats(cells)
    return {
        "metrics": {
            "setup_s": harness.median(run["setup_s"]),
            "jobs_per_s": run["jobs"] / sum(run["walls_s"]),
            "round_p50_ms": lat["p50_ms"],
            "round_p90_ms": lat["p90_ms"],
            "pass_s": harness.median(run["walls_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        },
        "attempted": len(run["cell_ok"]) + len(checks),
        "failed": run["cell_ok"].count(False) + sum(not ok for _, ok in checks),
        "checks": checks,
        "notes": [
            f"{len(run['walls_s'])} dashboard passes of {per_pass} cells; "
            f"round quantiles over per-cell medians",
            f"raw-to-reference CPU factor {run['cpu_factor']:.3f}",
        ],
    }


def trace(workload: str, seed: int, work) -> dict:
    run = _child(work, "traced")
    snap = run["snapshot"]
    self_s, counters = snap["self_s"], snap["counters"]
    e2e = run["e2e_s"]
    residual = e2e - sum(self_s.values())
    checks = [
        ("every cell validated with OPT <= every policy", all(run["cell_ok"])),
        ("tracing leaves the cells unchanged", run["same"]),
        ("layer self times sum to the dashboard pass",
         abs(residual) <= harness.SUM_TOLERANCE * e2e),
    ]
    states = counters.get("opt.states", 0)
    extra = {
        "opt.states": states,
        "opt.states_per_s": harness.ratio(states, self_s.get("opt.solve", 0.0)),
        "trace.overhead_frac": (e2e - run["wall_untraced_s"]) / run["wall_untraced_s"],
        "trace.e2e_s": e2e,
        "trace.unattributed_frac": residual / e2e,
    }
    return {
        "layers": self_s,
        "extra": extra,
        "attempted": len(run["cell_ok"]) + len(checks),
        "failed": run["cell_ok"].count(False) + sum(not ok for _, ok in checks),
        "checks": checks,
        "notes": [f"traced pass {e2e:.3f} s, untraced {run['wall_untraced_s']:.3f} s"],
    }


if __name__ == "__main__":
    harness.require_sources()
    role = sys.argv[1]
    if role == "timed":
        emit(timed(float(sys.argv[2])))
    elif role == "traced":
        emit(traced())
    else:
        raise SystemExit(f"unknown role {role!r}")

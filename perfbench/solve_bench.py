"""``solve-datacenter``: the offline round engine at the engine switch point.

The shared data-center workload (64 services whose demand drifts,
per-service delay bounds) runs on n = 1024 resources under DeltaLRU-EDF,
through :func:`repro.core.engine.make_simulator` with the engine
``repro solve`` picks by default, events off.  Each timed pass steps a
fresh simulator through the whole horizon and times every
``Simulator.step``.

Every process this module starts is a fresh interpreter, because
``Job.uid`` comes from a process-wide counter: the first instance a
process generates for a seed always carries the same uids, so digests
from two processes compare.  The correctness check builds the instance
again in its own process and runs the ``reference`` engine on it.

Run as a script, it is one of the child roles::

    python3 perfbench/solve_bench.py timed <seed> <seconds>
    python3 perfbench/solve_bench.py reference <seed>
    python3 perfbench/solve_bench.py traced <seed>
"""

from __future__ import annotations

import sys

import harness
from harness import emit, fresh_heap, now

N = 1024
DELTA = 8
SERVICES = 64
HORIZON = 256 if harness.SMOKE else 8192
POLICY = "dlru-edf"
#: what ``repro solve`` uses when no --engine is given.
ENGINE = "auto"
SETUP_REPEATS = 3
MIN_PASSES = 2
#: rounds per calibrated segment (a few hundred milliseconds).
SEGMENT = 512


def _build(seed: int, engine: str = ENGINE):
    from repro.workloads import scenarios

    instance = scenarios.datacenter_workload(
        num_services=SERVICES, horizon=HORIZON, delta=DELTA, seed=seed
    )
    return instance, _simulator(instance, engine)


def _simulator(instance, engine: str = ENGINE, telemetry=None):
    from repro.core import engine as engines
    from repro.policies import make_policy

    return engines.make_simulator(
        instance,
        make_policy(POLICY, DELTA),
        N,
        engine=engine,
        record_events=False,
        telemetry=telemetry,
    )


def _digests(sim) -> dict:
    from repro.core.digest import component_digests

    return component_digests(
        sim.ledger, sim.schedule, sim.events, sim.executed_uids, sim.dropped_uids
    )


def _timed_pass(sim, horizon: int, steps: list[float], cal) -> tuple[float, float]:
    """Step ``sim`` through every round, timed in segments of ``SEGMENT``
    rounds; append each step's reference-CPU seconds to ``steps``.
    Returns the raw and the scaled seconds spent inside steps."""
    fresh_heap()
    step = sim.step
    clock = now
    cal.rebase()
    raw_total = scaled_total = 0.0
    for lo in range(0, horizon, SEGMENT):
        segment = []
        for rnd in range(lo, min(lo + SEGMENT, horizon)):
            t0 = clock()
            step(rnd)
            segment.append(clock() - t0)
        raw = sum(segment)
        factor = cal.scale(raw)
        steps.extend(x * factor for x in segment)
        raw_total += raw
        scaled_total += raw * factor
    return raw_total, scaled_total


def _counts(instance, sim) -> dict:
    return {
        "core.arrivals": instance.sequence.num_jobs,
        "core.drops": sim.ledger.drop_count,
        "core.executions": len(sim.executed_uids),
        "core.reconfigs": sim.ledger.reconfig_count,
    }


# -- child roles ----------------------------------------------------------------


def timed(seed: int, seconds: float) -> dict:
    import repro.core.digest  # noqa: F401  (imports are not set-up work)
    import repro.core.engine  # noqa: F401
    import repro.policies  # noqa: F401
    import repro.workloads.scenarios  # noqa: F401

    # One set-up is a single long call, so the CPU is probed from a timer.
    setups = []
    first = None
    with harness.Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            fresh_heap()
            t0 = now()
            built = _build(seed)
            setups.append(sampler.scaled(t0, now()))
            first = first or built
    instance, sim = first
    built = None
    cal = harness.Calibrator()
    horizon = instance.sequence.horizon
    steps: list[float] = []
    walls: list[float] = []
    digests = []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        if walls:
            sim = _simulator(instance)
        walls.append(_timed_pass(sim, horizon, steps, cal)[1])
        digests.append(_digests(sim))
    return {
        "setup_s": setups,
        "steps_s": steps,
        "walls_s": walls,
        "jobs": instance.sequence.num_jobs * len(walls),
        "digests": digests,
        "engine": type(sim).__name__,
        "cpu_factor": cal.mean_factor,
        "peak_rss_mb": harness.peak_rss_mib(),
    }


def reference(seed: int) -> dict:
    instance, sim = _build(seed, engine="reference")
    sim.run()
    return {"digests": _digests(sim)}


def traced(seed: int) -> dict:
    from repro.telemetry.recorder import TelemetryRecorder
    from repro.workloads import scenarios
    from tracer import Tracer

    tracer = Tracer()
    instance = tracer.span(
        "workloads.generate",
        scenarios.datacenter_workload,
        num_services=SERVICES, horizon=HORIZON, delta=DELTA, seed=seed,
    )
    sim = tracer.span("core.make_simulator", _simulator, instance)
    horizon = instance.sequence.horizon
    cal = harness.Calibrator()
    plain: list[float] = []
    _, untraced = _timed_pass(sim, horizon, plain, cal)
    digests = [_digests(sim)]

    # Telemetry as shipped is off for solve; this is its price when on.
    sim = _simulator(instance, telemetry=TelemetryRecorder())
    recorded: list[float] = []
    _timed_pass(sim, horizon, recorded, cal)
    digests.append(_digests(sim))

    tracer.install_core()
    sim = _simulator(instance)
    tracer.install_policy(type(sim.policy))
    e2e, traced_scaled = _timed_pass(sim, horizon, [], cal)
    tracer.uninstall()
    digests.append(_digests(sim))
    return {
        "snapshot": tracer.snapshot(),
        "e2e_s": e2e,
        "trace_overhead": traced_scaled / untraced - 1,
        "median_step_off_s": harness.median(plain),
        "median_step_on_s": harness.median(recorded),
        "digests": digests,
        "counts": _counts(instance, sim),
        "rounds": 3 * horizon,
    }


# -- the benchmark side -----------------------------------------------------------


def _child(work, *args, timeout: float = 150.0) -> dict:
    script = str(harness.BENCH_DIR / "solve_bench.py")
    return harness.run_child([script, *map(str, args)], work, timeout)


def _digest_checks(digests: list[dict], oracle: dict) -> list[tuple[str, bool]]:
    return [
        ("every pass has the same digests", all(d == digests[0] for d in digests)),
        ("digests match the reference engine", digests[0] == oracle),
    ]


def measure(workload: str, seed: int, seconds: float, work) -> dict:
    timed_run = _child(work, "timed", seed, seconds)
    oracle = _child(work, "reference", seed)["digests"]
    checks = _digest_checks(timed_run["digests"], oracle)
    steps = timed_run["steps_s"]
    lat = harness.latency_stats(steps)
    return {
        "metrics": {
            "setup_s": harness.median(timed_run["setup_s"]),
            "jobs_per_s": timed_run["jobs"] / sum(timed_run["walls_s"]),
            "round_p50_ms": lat["p50_ms"],
            "round_p90_ms": lat["p90_ms"],
            "pass_s": harness.median(timed_run["walls_s"]),
            "peak_rss_mb": timed_run["peak_rss_mb"],
        },
        "attempted": len(steps) + len(checks),
        "failed": sum(not ok for _, ok in checks),
        "checks": checks,
        "notes": [
            f"engine {timed_run['engine']}, n={N}, {SERVICES} services, "
            f"horizon {HORIZON}, {len(timed_run['walls_s'])} passes",
            f"round samples {lat['samples']} ({lat['beyond_p90']} beyond p90), "
            f"setup samples {len(timed_run['setup_s'])}, "
            f"raw-to-reference CPU factor {timed_run['cpu_factor']:.3f}",
        ],
    }


def trace(workload: str, seed: int, work) -> dict:
    run = _child(work, "traced", seed)
    oracle = _child(work, "reference", seed)["digests"]
    snap = run["snapshot"]
    self_s, counters = snap["self_s"], snap["counters"]
    e2e = run["e2e_s"]
    # e2e is the time inside steps; set-up spans are outside it.
    covered = sum(
        v for k, v in self_s.items() if k.startswith(("core.", "policies."))
        and k != "core.make_simulator"
    )
    residual = e2e - covered
    checks = _digest_checks(run["digests"], oracle) + [
        ("layer self times sum to the round loop", abs(residual) <= harness.SUM_TOLERANCE * e2e),
    ]
    extra = {
        **run["counts"],
        "core.resources.noop_frac": harness.ratio(
            counters.get("core.resources.noops", 0), counters.get("core.resources.calls", 0)
        ),
        "policies.desired_cache_hit_frac": harness.ratio(
            counters.get("policies.desired_hits", 0), counters.get("policies.desired_calls", 0)
        ),
        "telemetry.overhead_frac": (
            run["median_step_on_s"] - run["median_step_off_s"]
        ) / run["median_step_off_s"],
        "trace.overhead_frac": run["trace_overhead"],
        "trace.e2e_s": e2e,
        "trace.unattributed_frac": residual / e2e,
    }
    return {
        "layers": self_s,
        "extra": extra,
        "attempted": run["rounds"] + len(checks),
        "failed": sum(not ok for _, ok in checks),
        "checks": checks,
        "notes": [f"traced pass {e2e:.3f} s in steps, "
                  f"tracing overhead {run['trace_overhead']:+.1%}"],
    }


if __name__ == "__main__":
    harness.require_sources()
    role, seed = sys.argv[1], int(sys.argv[2])
    if role == "timed":
        emit(timed(seed, float(sys.argv[3])))
    elif role == "reference":
        emit(reference(seed))
    elif role == "traced":
        emit(traced(seed))
    else:
        raise SystemExit(f"unknown role {role!r}")

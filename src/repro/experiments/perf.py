"""Perf harness: the two round engines against each other.

Every simulator/policy pair in this codebase runs on one of two engines
(see :mod:`repro.core.engine`):

- ``reference`` — the historical full-scan / full-re-sort object engine;
- ``incremental`` — index-diffed reconfiguration in the resource bank,
  maintained rankings in the policies, sparse execution.

Both are required to be **bit-identical**: same ledger, same schedule,
same event log, job for job and location for location.  This harness
measures the incremental engine's speedup over the reference engine on
the same workloads the pytest benchmarks use (E12's datacenter scenario
plus the scaling series) and verifies the bit-identity contract on every
case — both within this process and, optionally, across processes under
different ``PYTHONHASHSEED`` values (string-colored workloads would
leak set iteration order into the schedules if any code path iterated a
raw set).

Results land in ``BENCH_perf.json`` at the repo root::

    PYTHONPATH=src python -m repro.cli perf --scale full
    PYTHONPATH=src python benchmarks/perf.py --scale quick
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.digest import result_digest
from repro.core.engine import ENGINES, make_simulator
from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.core.simulator import SimulationResult, Simulator
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.workloads.generators import rate_limited_workload
from repro.workloads.scenarios import datacenter_workload

SCHEMA = "bench-perf-v4"

#: PYTHONHASHSEED values for the cross-process determinism leg (≥3 distinct
#: seeds, none of them 0, so hash-order bugs cannot hide behind a fixed seed).
HASHSEED_SEEDS = (1, 7, 1234)

_WORKLOADS = {
    "rate-limited": rate_limited_workload,
    "datacenter": datacenter_workload,
}


@dataclass(frozen=True)
class PerfCase:
    """One timed workload: a generator, its parameters, and the resources."""

    name: str
    workload: str
    params: Mapping[str, int]
    n: int
    #: membership: "quick" runs a subset, "full" runs everything.
    scales: tuple[str, ...] = ("quick", "full")
    #: the incremental acceptance gate (>= 1.5x) applies to the largest
    #: case only.
    largest: bool = False


#: The perf suite mirrors the pytest benchmarks: E12's datacenter scenario
#: (quick and full parameters) and the largest point of each scaling series.
CASES: tuple[PerfCase, ...] = (
    PerfCase(
        name="e12_datacenter_quick",
        workload="datacenter",
        params={"num_services": 8, "horizon": 2048, "delta": 8, "seed": 0},
        n=16,
    ),
    PerfCase(
        name="scaling_horizon_4096",
        workload="rate-limited",
        params={"num_colors": 8, "horizon": 4096, "delta": 4, "seed": 0},
        n=16,
        scales=("full",),
    ),
    PerfCase(
        name="scaling_colors_64",
        workload="rate-limited",
        params={"num_colors": 64, "horizon": 512, "delta": 4, "seed": 0},
        n=16,
        scales=("full",),
    ),
    PerfCase(
        name="scaling_resources_128",
        workload="rate-limited",
        params={"num_colors": 16, "horizon": 512, "delta": 4, "seed": 0},
        n=128,
        scales=("full",),
    ),
    PerfCase(
        name="scaling_resources_1024",
        workload="rate-limited",
        params={"num_colors": 32, "horizon": 1024, "delta": 4, "seed": 0},
        n=1024,
        scales=("full",),
    ),
    # The largest scaling-series point: the reference engine's
    # per-mini-round O(n) location scan grows linearly in n while the
    # incremental engine touches only changed locations and nonidle colors.
    PerfCase(
        name="scaling_resources_16384",
        workload="rate-limited",
        params={"num_colors": 32, "horizon": 1024, "delta": 4, "seed": 0},
        n=16384,
        scales=("full",),
    ),
    PerfCase(
        name="e12_datacenter_full",
        workload="datacenter",
        params={"num_services": 16, "horizon": 16384, "delta": 8, "seed": 0},
        n=32,
        scales=("full",),
    ),
    # The largest scale: the full E12 horizon crossed with the resource count
    # of the largest scaling-series point.  The reference engine's O(n)
    # scans per mini-round dominate here; the incremental engine touches
    # only changed locations and nonidle colors.
    PerfCase(
        name="e12_datacenter_large",
        workload="datacenter",
        params={"num_services": 32, "horizon": 16384, "delta": 8, "seed": 0},
        n=128,
        scales=("full",),
        largest=True,
    ),
)


def build_instance(case: PerfCase) -> Instance:
    return _WORKLOADS[case.workload](**case.params)


def run_case(
    case: PerfCase,
    engine: str = "incremental",
    record_events: bool = True,
    instance: Instance | None = None,
) -> SimulationResult:
    """One simulation of ``case`` on the named engine.

    Digest comparisons must pass the *same* ``instance`` to every engine:
    job uids come from a process-global counter, so two builds of the same
    workload carry different uid streams (and therefore different digests)
    even though the runs are otherwise identical.
    """
    if instance is None:
        instance = build_instance(case)
    policy = DeltaLRUEDFPolicy(
        instance.delta, incremental=engine != "reference"
    )
    sim = make_simulator(
        instance,
        policy,
        case.n,
        engine=engine,
        record_events=record_events,
    )
    return sim.run()


# `result_digest` (re-exported above) moved to repro.core.digest so the
# serve determinism contract hashes runs exactly the way this harness does.


def time_case(case: PerfCase, repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` wall clock per engine (``{engine: seconds}``).

    The repeats interleave the engines and collect garbage before each
    timed run, so clock drift and allocator state hit every side equally
    (events off, like the pytest benchmarks).  Simulator construction is
    timed too.
    """
    best = {engine: float("inf") for engine in ENGINES}
    for _ in range(repeats):
        for engine in ENGINES:
            instance = build_instance(case)
            policy = DeltaLRUEDFPolicy(
                instance.delta, incremental=engine != "reference"
            )
            gc.collect()
            start = time.perf_counter()
            make_simulator(
                instance,
                policy,
                case.n,
                engine=engine,
                record_events=False,
            ).run()
            best[engine] = min(best[engine], time.perf_counter() - start)
    return best


# -- the cross-process determinism leg ------------------------------------------


def _string_relabel(instance: Instance) -> Instance:
    """The same instance with string colors (``c0007``-style).

    String colors are where PYTHONHASHSEED leaks show: if any engine path
    iterated a raw set of colors, the desired-multiset order — and with it
    location assignment, events, and schedules — would differ between hash
    seeds.  Integer keys hash to themselves, so only strings catch it.
    """
    jobs = [
        Job(
            color=f"c{job.color:04d}",
            arrival=job.arrival,
            delay_bound=job.delay_bound,
        )
        for job in instance.sequence.jobs()
    ]
    return Instance(
        RequestSequence(jobs), instance.delta, name=f"{instance.name}-str"
    )


def hashseed_digests() -> dict[str, str]:
    """Digests of one string-colored run on each engine (current process).

    An extra leg re-runs the incremental engine with a live telemetry
    recorder (metrics plus a discarded JSONL trace): the
    never-affects-digests contract must hold under every hash seed, so the
    flat-digest check covers telemetry-on alongside both plain engines.
    """
    import io

    from repro.telemetry import TelemetryRecorder, TraceWriter

    instance = _string_relabel(
        rate_limited_workload(num_colors=16, horizon=256, delta=4, seed=0)
    )
    out = {}
    for engine in ENGINES:
        policy = DeltaLRUEDFPolicy(
            instance.delta, incremental=engine != "reference"
        )
        result = make_simulator(instance, policy, 16, engine=engine).run()
        out[engine] = result_digest(result)
    recorder = TelemetryRecorder(trace=TraceWriter(io.StringIO()))
    result = Simulator(
        instance,
        DeltaLRUEDFPolicy(instance.delta),
        n=16,
        telemetry=recorder,
    ).run()
    out["incremental_telemetry"] = result_digest(result)
    return out


_CHILD_CODE = (
    "import json; from repro.experiments.perf import hashseed_digests; "
    "print(json.dumps(hashseed_digests()))"
)


def check_hashseed_determinism(
    seeds: Sequence[int] = HASHSEED_SEEDS,
) -> dict:
    """Run the string-colored digest in one subprocess per hash seed.

    Returns ``{"seeds": [...], "digests": {...}, "identical": bool}`` where
    ``identical`` means every seed and both engines produced one digest.
    """
    digests: dict[str, dict[str, str]] = {}
    src_root = str(Path(__file__).resolve().parents[2])
    for seed in seeds:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_CODE],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        digests[str(seed)] = json.loads(proc.stdout)
    flat = {d for per_seed in digests.values() for d in per_seed.values()}
    return {
        "seeds": list(seeds),
        "digests": digests,
        "identical": len(flat) == 1,
    }


# -- the telemetry leg ----------------------------------------------------------


def telemetry_section(
    repeats: int,
    baseline_path: str | os.PathLike | None = None,
    case: PerfCase | None = None,
) -> dict:
    """Measure telemetry cost and verify the never-affects-digests contract.

    Times the incremental engine with telemetry disabled (the
    ``NullRecorder`` default — i.e. exactly what the main timing rows
    measure) against a live metrics recorder, interleaved like
    :func:`time_case`.  If ``baseline_path`` names a readable prior
    ``BENCH_perf.json``, the disabled-path time is also compared against
    that file's recorded ``incremental_seconds`` for the same case — the
    "PR 2 baseline" gate: the off switch must stay within 2%.  Wall-clock
    comparisons across files assume the same machine; the in-run
    ``enabled_overhead_pct`` is the noise-robust number.
    """
    from repro.telemetry import TelemetryRecorder
    from repro.telemetry.recorder import NullRecorder

    case = case if case is not None else CASES[0]
    best = {"off": float("inf"), "on": float("inf")}
    for _ in range(repeats):
        for mode in ("off", "on"):
            instance = build_instance(case)
            policy = DeltaLRUEDFPolicy(instance.delta)
            recorder = TelemetryRecorder() if mode == "on" else NullRecorder()
            sim = Simulator(
                instance,
                policy,
                n=case.n,
                record_events=False,
                telemetry=recorder,
            )
            gc.collect()
            start = time.perf_counter()
            sim.run()
            best[mode] = min(best[mode], time.perf_counter() - start)

    # The digest contract, on a shared instance (uid streams, see run_case).
    shared = build_instance(case)
    plain = run_case(case, record_events=True, instance=shared)
    recorder = TelemetryRecorder()
    instrumented = Simulator(
        shared,
        DeltaLRUEDFPolicy(shared.delta),
        n=case.n,
        record_events=True,
        telemetry=recorder,
    ).run()
    digests_match = result_digest(plain) == result_digest(instrumented)

    prior_seconds = None
    if baseline_path is not None:
        try:
            prior = json.loads(Path(baseline_path).read_text())
            prior_seconds = next(
                (
                    row["incremental_seconds"]
                    for row in prior.get("cases", [])
                    if row.get("name") == case.name
                ),
                None,
            )
        except (OSError, ValueError):
            prior_seconds = None

    disabled_vs_prior_pct = (
        round((best["off"] / prior_seconds - 1.0) * 100, 2)
        if prior_seconds
        else None
    )
    return {
        "case": case.name,
        "disabled_seconds": round(best["off"], 6),
        "enabled_seconds": round(best["on"], 6),
        "enabled_overhead_pct": round((best["on"] / best["off"] - 1.0) * 100, 2),
        "prior_incremental_seconds": prior_seconds,
        "disabled_vs_prior_pct": disabled_vs_prior_pct,
        # The 2% gate on the off switch; vacuously met when no prior file
        # (or no matching case) is available to compare against.
        "meets_2pct_gate": (
            disabled_vs_prior_pct is None or disabled_vs_prior_pct < 2.0
        ),
        "digests_match": digests_match,
        "counters": recorder.snapshot()["counters"],
    }


# -- the harness ----------------------------------------------------------------


def host() -> dict:
    """Where the numbers were measured: CPUs, python, platform, checkout."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_perf(
    scale: str = "quick",
    repeats: int = 3,
    check_hashseed: bool = True,
    baseline_path: str | os.PathLike | None = "BENCH_perf.json",
) -> dict:
    """Time and digest-verify every case of ``scale``; return the payload."""
    if scale not in ("quick", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    cases = [case for case in CASES if scale in case.scales]
    rows = []
    for case in cases:
        # Time first: the digest pass allocates full event logs, and its
        # allocator footprint would otherwise bleed into the wall clocks.
        seconds = time_case(case, repeats)
        shared = build_instance(case)
        digests = {
            engine: result_digest(
                run_case(case, engine, record_events=True, instance=shared)
            )
            for engine in ENGINES
        }
        rows.append({
            "name": case.name,
            "workload": case.workload,
            "params": dict(case.params),
            "n": case.n,
            "largest": case.largest,
            "reference_seconds": round(seconds["reference"], 6),
            "incremental_seconds": round(seconds["incremental"], 6),
            "speedup": round(seconds["reference"] / seconds["incremental"], 3),
            "digest": digests["incremental"],
            "digests_match": len(set(digests.values())) == 1,
        })
    flagged = next((r for r in rows if r["largest"]), None)
    gate_row = flagged or rows[-1]
    payload = {
        "schema": SCHEMA,
        "scale": scale,
        "repeats": repeats,
        "host": host(),
        "engines": list(ENGINES),
        "cases": rows,
        "largest_case": {
            "name": gate_row["name"],
            "speedup": gate_row["speedup"],
            "meets_1_5x": gate_row["speedup"] >= 1.5,
            # The 1.5x acceptance gate is defined on the largest (full-scale)
            # case; at --scale quick the number is informational.
            "gated": flagged is not None,
        },
        "all_digests_match": all(r["digests_match"] for r in rows),
    }
    payload["telemetry"] = telemetry_section(repeats, baseline_path)
    payload["all_digests_match"] = (
        payload["all_digests_match"] and payload["telemetry"]["digests_match"]
    )
    if check_hashseed:
        payload["hashseed"] = check_hashseed_determinism()
    return payload


def render(payload: dict) -> str:
    lines = [
        f"perf ({payload['scale']}, best of {payload['repeats']}):",
        f"  {'case':26s} {'reference':>10s} {'incremental':>12s} "
        f"{'speedup':>8s}  digests",
    ]
    for row in payload["cases"]:
        lines.append(
            f"  {row['name']:26s} {row['reference_seconds'] * 1000:9.1f}ms "
            f"{row['incremental_seconds'] * 1000:11.1f}ms "
            f"{row['speedup']:7.2f}x  "
            f"{'match' if row['digests_match'] else 'MISMATCH'}"
        )
    largest = payload["largest_case"]
    if largest.get("gated"):
        lines.append(
            f"  largest case {largest['name']}: {largest['speedup']:.2f}x "
            f"({'meets' if largest['meets_1_5x'] else 'BELOW'} the 1.5x gate)"
        )
    else:
        lines.append(
            f"  largest case {largest['name']}: {largest['speedup']:.2f}x "
            f"(informational; the 1.5x gate applies at --scale full)"
        )
    if "telemetry" in payload:
        tel = payload["telemetry"]
        lines.append(
            f"  telemetry ({tel['case']}): off {tel['disabled_seconds'] * 1000:.1f}ms, "
            f"on {tel['enabled_seconds'] * 1000:.1f}ms "
            f"({tel['enabled_overhead_pct']:+.1f}%), digests "
            f"{'match' if tel['digests_match'] else 'MISMATCH'}"
        )
        if tel["disabled_vs_prior_pct"] is not None:
            lines.append(
                f"  off-switch vs prior baseline: "
                f"{tel['disabled_vs_prior_pct']:+.1f}% "
                f"({'within' if tel['meets_2pct_gate'] else 'OVER'} the 2% gate)"
            )
    if "hashseed" in payload:
        hs = payload["hashseed"]
        lines.append(
            f"  hashseed determinism over PYTHONHASHSEED={hs['seeds']}: "
            f"{'identical' if hs['identical'] else 'DIVERGENT'}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf",
        description="two-engine benchmark (reference / incremental)",
    )
    parser.add_argument("--scale", default="quick", choices=["quick", "full"])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default="BENCH_perf.json",
        help="output path (default: BENCH_perf.json at the cwd)",
    )
    parser.add_argument(
        "--no-hashseed",
        action="store_true",
        help="skip the cross-process PYTHONHASHSEED determinism leg",
    )
    args = parser.parse_args(argv)
    payload = run_perf(
        scale=args.scale,
        repeats=args.repeats,
        check_hashseed=not args.no_hashseed,
        baseline_path=args.out,
    )
    print(render(payload))
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    ok = payload["all_digests_match"] and payload.get("hashseed", {}).get(
        "identical", True
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

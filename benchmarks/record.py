"""Record perfbench pairs of a base checkout and a change checkout.

Usage::

    python benchmarks/record.py --base ../parent --change . \\
        --workload serve-durable --seed 13 --pairs 10

For each workload, runs the benchmark command ``BENCHMARK.json`` names
(``perfbench/run.py``, timed, ``run_seconds`` long) once in each
checkout per pair, alternating which side runs first, and writes one
record per workload into ``BENCH_perfbench.json`` (records of other
workloads already in the file are kept).  A record holds the host, both
git SHAs, the seed, every run's end-to-end metrics, each side's median
and quartiles, and the change's pair wins per metric: pairs in which
the change reads strictly better, in the metric's ``better`` direction
(ties count for neither side).

Nothing is written when any run is incorrect or has a failed operation.
The file records; it computes no gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMAT = "bench-perfbench-v1"


class RecordError(RuntimeError):
    """A run the record cannot use (failed, incorrect or unparsable)."""


def host() -> dict:
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_sha(checkout: Path) -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def parse_run(stdout: str) -> dict:
    """The JSON result line ``perfbench/run.py`` prints last; raises
    :class:`RecordError` when the run was incorrect or failed anything."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RecordError("run printed no JSON result line") from None
    if not result.get("correct"):
        raise RecordError("run reported correct: false")
    if result.get("failed") != 0:
        raise RecordError(f"run had {result.get('failed')} failed operations")
    return result


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    args = [sys.executable if part in ("python", "python3") else part
            for part in command]
    proc = subprocess.run(
        args + ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return parse_run(proc.stdout)
    except RecordError as exc:
        raise RecordError(
            f"{checkout} {workload}: {exc} (exit {proc.returncode})\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        ) from None


def spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, inclusive)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per-side runs, spread and the change's pair wins.

    ``pairs`` holds ``(base_result, change_result)`` run results (the
    parsed JSON lines); ``metrics`` the end-to-end entries of
    ``BENCHMARK.json`` (``name``, ``unit``, ``better``).
    """
    if not pairs:
        raise RecordError("no pairs to summarize")
    sides: dict[str, dict] = {"base": {}, "change": {}}
    wins: dict[str, int] = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        runs = {
            side: [result["metrics"][name]["value"]
                   for result in (pair[k] for pair in pairs)]
            for k, side in enumerate(("base", "change"))
        }
        for side, values in runs.items():
            sides[side][name] = {
                "unit": metric["unit"], **spread(values), "runs": values,
            }
        wins[name] = sum(
            sign * (change - base) > 0
            for base, change in zip(runs["base"], runs["change"])
        )
    return {"pairs": len(pairs), **sides, "change_wins": wins}


def record(base: Path, change: Path, workload: str, seed: int, pairs: int,
           spec: dict) -> dict:
    command, seconds = spec["command"], spec["run_seconds"]
    results: list[tuple[dict, dict]] = []
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            checkout = base if side == "base" else change
            pair[side] = run_once(checkout, command, workload, seed, seconds)
            print(f"{workload} pair {k + 1}/{pairs} {side}: "
                  f"{pair[side]['metrics']['jobs_per_s']['value']:.1f} jobs/s",
                  flush=True)
        results.append((pair["base"], pair["change"]))
    summary = summarize(results, spec["end_to_end"])
    summary["base"] = {"sha": git_sha(base), **summary["base"]}
    summary["change"] = {"sha": git_sha(change), **summary["change"]}
    return {
        "workload": workload, "seed": seed, "run_seconds": seconds,
        "host": host(), **summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    try:
        records = {
            workload: record(args.base, args.change, workload, args.seed,
                             args.pairs, spec)
            for workload in args.workload
        }
    except RecordError as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 1
    payload = {"format": FORMAT, "records": {}}
    if args.out.exists():
        payload = json.loads(args.out.read_text())
    payload["records"].update(records)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

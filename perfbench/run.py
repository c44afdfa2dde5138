"""The repository benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload solve-datacenter --seed 1 --seconds 8 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``solve-datacenter`` — offline engine run at n = 1024 (solve_bench.py);
- ``serve-heavy`` — single-process server, dense per-job load (serve_bench.py);
- ``serve-durable`` — workers, journal and tenant plan, light load;
- ``opt-ratio`` — the exact-optimum ratio dashboard (opt_bench.py).

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Human-readable lines come first (host, checks, metrics); the
last line of standard output is the JSON result.  Any failed
correctness check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import harness

WORKLOADS = {
    "solve-datacenter": "solve_bench",
    "serve-heavy": "serve_bench",
    "serve-durable": "serve_bench",
    "opt-ratio": "opt_bench",
}


def _spec() -> dict:
    path = harness.ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise harness.BenchError(f"cannot read {path}: {exc}") from None


def _per_layer(names: list[str], result: dict) -> dict[str, float]:
    """Per-layer metric values: a ``<span>_s`` name is that span's self
    time, other names come from the workload's extra figures; a layer the
    workload does not exercise reads 0."""
    layers, extra = result["layers"], result["extra"]
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name.endswith("_s") and name[:-2] in layers:
            values[name] = layers[name[:-2]]
        else:
            values[name] = 0.0
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_sources()
        spec = _spec()
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    cpu = harness.pin_to_one_cpu()
    module = importlib.import_module(WORKLOADS[args.workload])
    work = harness.make_workdir(args.workload)
    try:
        if args.trace:
            result = module.trace(args.workload, args.seed, work)
        else:
            result = module.measure(args.workload, args.seed, args.seconds, work)
    finally:
        harness.remove_workdir(work)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if args.trace:
        values = _per_layer(list(units), result)
    else:
        values = {name: result["metrics"][name] for name in units}
    correct = all(ok for _, ok in result["checks"]) and result["failed"] == 0

    host = harness.host()
    print(f"host: {host['cpus']} CPUs, python {host['python']}, "
          f"{host['platform']}, git {host['git_sha']}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} run pinned to CPU {cpu}")
    for line in result["notes"]:
        print(f"  {line}")
    for name, ok in result["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

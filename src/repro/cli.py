"""Command-line interface.

Examples::

    repro list
    repro experiment E1 --scale full
    repro all --scale quick --jobs 4 --stats
    repro sweep --workload poisson --deltas 2,4 --ns 8,16 --seeds 0,1,2 --jobs 4
    repro solve --workload poisson --n 16 --delta 4 --seed 7
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro import __version__
from repro.core.request import Instance
from repro.core.simulator import simulate
from repro.policies import POLICY_FACTORIES, make_policy
from repro.reductions.pipeline import solve_online

#: ``--workload`` choices.  Each names ``repro.workloads.<name>_workload``
#: (dashes as underscores), imported only by the commands that build an
#: instance: the workload generators load numpy, and ``repro serve``,
#: ``top`` and ``spans`` build none.
WORKLOADS: tuple[str, ...] = (
    "rate-limited",
    "batched",
    "poisson",
    "bursty",
    "uniform",
    "datacenter",
    "router",
    "mmpp",
    "flash-crowd",
    "lb-adversary",
)

#: named policy constructors live with the policies themselves so the CLI
#: and the serve layer agree on every name (see repro.policies).
POLICIES = POLICY_FACTORIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reconfigurable resource scheduling with variable delay bounds "
            "(Plaxton, Sun, Tiwari, Vin — IPPS 2007): experiments and solvers."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workload generators")

    p_exp = sub.add_parser("experiment", help="run one experiment and print its table")
    p_exp.add_argument("experiment_id", help="e.g. E1 or A5 (see 'repro list')")
    p_exp.add_argument("--scale", default="quick", choices=["quick", "full"])

    p_all = sub.add_parser("all", help="run the whole experiment suite")
    p_all.add_argument("--scale", default="quick", choices=["quick", "full"])
    p_all.add_argument("--jobs", type=int, default=1,
                       help="worker processes (0 = one per core); output is "
                       "bit-identical at any value")
    p_all.add_argument("--stats", action="store_true",
                       help="collect per-task timing metrics plus "
                       "per-worker telemetry, print the table, and write the "
                       "JSON payload to --stats-out")
    p_all.add_argument("--stats-out", default="benchmarks/output/local/runner_stats.json",
                       help="explicit destination for the --stats JSON payload "
                       "(parent directories are created; the default lives "
                       "under the git-ignored benchmarks/output/local/)")

    p_sweep = sub.add_parser(
        "sweep", help="grid-sweep the pipeline solver over delta x n x seed"
    )
    p_sweep.add_argument("--workload", default="poisson", choices=sorted(WORKLOADS))
    p_sweep.add_argument("--deltas", default="2,4", help="comma-separated Delta values")
    p_sweep.add_argument("--ns", default="8,16", help="comma-separated resource counts")
    p_sweep.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p_sweep.add_argument("--horizon", type=int, default=None)
    p_sweep.add_argument("--value", default="total_cost",
                         help="which measurement to tabulate")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (0 = one per core)")

    p_solve = sub.add_parser(
        "solve", help="generate (or load) a workload and run a solver on it"
    )
    p_solve.add_argument("--workload", default="poisson", choices=sorted(WORKLOADS))
    p_solve.add_argument("--trace", default=None,
                         help="load the instance from a trace file instead of generating")
    p_solve.add_argument("--n", type=int, default=16, help="online resources")
    p_solve.add_argument("--delta", type=int, default=4, help="reconfiguration cost")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--horizon", type=int, default=None)
    p_solve.add_argument(
        "--policy",
        default="pipeline",
        choices=["pipeline"] + sorted(POLICIES),
        help="'pipeline' = VarBatch∘Distribute∘DeltaLRU-EDF (Theorem 3); "
        "others run the named policy directly on the raw sequence",
    )
    p_solve.add_argument("--engine", default="auto",
                         choices=["auto", "reference", "incremental"],
                         help="round engine for direct policies (ignored by "
                         "the pipeline); 'auto' is incremental; both "
                         "engines are digest-identical")
    p_solve.add_argument("--timeline", action="store_true",
                         help="print an ASCII timeline of the schedule")
    p_solve.add_argument("--telemetry", default=None, metavar="OUT_JSONL",
                         help="record the run as a span trace (JSONL, schema "
                         "repro-trace-v2: a run root, one span per round, a "
                         "summary; render with 'repro spans') to this path; "
                         "never changes the solution")

    p_trace = sub.add_parser(
        "trace", help="generate a workload and save it as a reusable trace file"
    )
    p_trace.add_argument("--workload", default="poisson", choices=sorted(WORKLOADS))
    p_trace.add_argument("--delta", type=int, default=4)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--horizon", type=int, default=None)
    p_trace.add_argument("--out", required=True, help="output trace path")
    p_trace.add_argument("--telemetry", default=None, metavar="OUT_JSONL",
                         help="additionally run the recommended solver on the "
                         "saved workload with telemetry on and write its "
                         "span trace (JSONL, repro-trace-v2) here")

    p_verify = sub.add_parser(
        "verify",
        help="run the recommended solver on a trace and verify the run "
        "end to end (schedule validity, cost agreement, lemma bounds)",
    )
    p_verify.add_argument("--trace", required=True, help="trace file to verify")
    p_verify.add_argument("--n", type=int, default=16)

    p_opt = sub.add_parser(
        "opt",
        help="exact offline optimum (brute-force DP) and the "
        "empirical competitive-ratio dashboard; writes BENCH_opt.json",
    )
    p_opt.add_argument("--scale", default="quick", choices=["quick", "full"])
    p_opt.add_argument("--engine", default="incremental",
                       choices=["auto", "reference", "incremental"],
                       help="round engine used to replay-validate decoded "
                       "optima and (in dashboard mode) run the policies")
    p_opt.add_argument("--max-states", type=int, default=2_000_000,
                       help="brute-force search budget (DP memo entries)")
    p_opt.add_argument("--out", default="BENCH_opt.json",
                       help="dashboard artifact path (bench-opt-v1 JSON)")
    p_opt.add_argument("--json", action="store_true",
                       help="print the payload as JSON instead of the table")
    p_opt.add_argument("--workload", default=None, choices=sorted(WORKLOADS),
                       help="single-solve mode: solve one generated workload "
                       "instead of building the dashboard")
    p_opt.add_argument("--trace", default=None,
                       help="single-solve mode: solve a saved trace file")
    p_opt.add_argument("--n", type=int, default=4,
                       help="single-solve: online resources (policy side)")
    p_opt.add_argument("--m", type=int, default=None,
                       help="single-solve: offline resources (default: --n)")
    p_opt.add_argument("--delta", type=int, default=2)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--horizon", type=int, default=None,
                       help="single-solve: truncate the solve horizon "
                       "(jobs arriving past it are excluded, not charged)")

    p_metrics = sub.add_parser(
        "metrics",
        help="run one workload/policy with telemetry on and print the "
        "metrics (human table or Prometheus text exposition)",
    )
    p_metrics.add_argument("--workload", default="poisson", choices=sorted(WORKLOADS))
    p_metrics.add_argument("--trace", default=None,
                           help="load the instance from a trace file instead "
                           "of generating")
    p_metrics.add_argument("--n", type=int, default=16)
    p_metrics.add_argument("--delta", type=int, default=4)
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--horizon", type=int, default=None)
    p_metrics.add_argument(
        "--policy",
        default="dlru-edf",
        choices=["pipeline"] + sorted(POLICIES),
        help="policy (or the Theorem-3 pipeline) to instrument",
    )
    p_metrics.add_argument("--format", default="table", choices=["table", "prom"],
                           help="'table' = human-readable; 'prom' = Prometheus "
                           "text exposition format")
    p_metrics.add_argument("--input", default=None, metavar="SNAPSHOT_JSON",
                           help="render a previously saved snapshot (a raw "
                           "metrics snapshot or a runner_stats.json with a "
                           "'telemetry' section) instead of running anything")
    p_metrics.add_argument("--url", default=None, metavar="METRICS_URL",
                           help="scrape a live /metrics endpoint (e.g. "
                           "http://HOST:PORT/metrics from 'repro serve') and "
                           "render it instead of running anything")
    p_metrics.add_argument("--telemetry", default=None, metavar="OUT_JSONL",
                           help="also write the run's span trace (JSONL, "
                           "repro-trace-v2) to this path")

    p_serve = sub.add_parser(
        "serve",
        help="run the online scheduling service (repro-serve-v1 over NDJSON, "
        "plus /metrics and /healthz over HTTP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="protocol port (0 = ephemeral; see --port-file)")
    p_serve.add_argument("--metrics-port", type=int, default=0,
                         help="HTTP port for /metrics and /healthz "
                         "(0 = ephemeral, -1 = disabled)")
    p_serve.add_argument("--n", type=int, default=16, help="total resources")
    p_serve.add_argument("--delta", type=int, default=4)
    p_serve.add_argument("--policy", default="dlru-edf",
                         choices=sorted(POLICIES))
    p_serve.add_argument("--shards", type=int, default=1,
                         help="independent simulator sessions; colors are "
                         "hash-routed and capacity is split exactly")
    p_serve.add_argument("--speed", type=int, default=1,
                         help="mini-rounds per round")
    p_serve.add_argument("--engine", default="incremental",
                         choices=["auto", "reference", "incremental"],
                         help="round engine; 'auto' is incremental")
    p_serve.add_argument("--clock", default="client",
                         choices=["client", "timer"],
                         help="'client': rounds advance on tick frames "
                         "(deterministic replay); 'timer': the server ticks "
                         "itself every --round-interval seconds")
    p_serve.add_argument("--round-interval", type=float, default=0.05,
                         metavar="SECONDS")
    p_serve.add_argument("--max-pending", type=int, default=10_000,
                         help="per-shard in-flight job bound; submits beyond "
                         "it are rejected with reason 'backpressure'")
    p_serve.add_argument("--journal", default=None, metavar="PATH",
                         help="write-ahead JSONL session journal (submit "
                         "intents, commit markers, round results)")
    p_serve.add_argument("--spans", default=None, metavar="OUT_JSONL",
                         help="record request-scoped spans (repro-trace-v2 "
                         "JSONL): submit -> admit -> wal -> commit -> "
                         "execute/drop trees, one per batch; render with "
                         "'repro spans'")
    p_serve.add_argument("--workers", action="store_true",
                         help="run each shard in its own supervised worker "
                         "process with journal-replay failover")
    p_serve.add_argument("--worker-retries", type=int, default=2,
                         metavar="N",
                         help="respawn attempts per worker per operation "
                         "before the session fails (default: 2)")
    p_serve.add_argument("--worker-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="per-attempt budget before a hung shard worker "
                         "is killed and respawned (default: 30)")
    p_serve.add_argument("--tenants", default=None, metavar="PLAN_JSON",
                         help="tenant plan file ({'tenants': [...]}); each "
                         "entry is a named color set with an exact (rate, "
                         "delay-bound) contract, BDR-checked at startup and "
                         "token-bucket enforced per shard")
    p_serve.add_argument("--idle-timeout", type=float, default=300.0,
                         metavar="SECONDS",
                         help="close protocol connections that send no frame "
                         "for this long (0 = never; default: 300)")
    p_serve.add_argument("--port-file", default=None, metavar="PATH",
                         help="write the bound ports as JSON once listening "
                         "(what the CI smoke leg and tests poll for)")
    p_serve.add_argument("--quiet", action="store_true")

    p_load = sub.add_parser(
        "loadgen",
        help="replay a workload against a running server and verify the "
        "live schedule digests against an offline re-run",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=None,
                        help="server port (or use --port-file)")
    p_load.add_argument("--port-file", default=None, metavar="PATH",
                        help="read the port from a 'repro serve --port-file' "
                        "JSON document")
    p_load.add_argument("--workload", default="poisson",
                        choices=sorted(WORKLOADS))
    p_load.add_argument("--trace", default=None,
                        help="replay a saved trace file instead of generating")
    p_load.add_argument("--delta", type=int, default=4,
                        help="workload Delta (must match the server's)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--horizon", type=int, default=None)
    p_load.add_argument("--no-verify", action="store_true",
                        help="skip the offline digest verification")
    p_load.add_argument("--tenants", default=None, metavar="PLAN_JSON",
                        help="register this tenant plan on connect (same "
                        "file 'repro serve --tenants' takes); shed counts "
                        "land in the report and verification excludes shed "
                        "jobs")
    p_load.add_argument("--connect-attempts", type=int, default=8,
                        metavar="N",
                        help="connection attempts with deterministic "
                        "exponential backoff before giving up (default: 8)")
    p_load.add_argument("--json", default=None, metavar="OUT",
                        help="also write the full report as JSON")

    p_spans = sub.add_parser(
        "spans",
        help="render span traces (repro-trace-v2, from 'repro serve "
        "--spans' or a run's --telemetry) as trees",
    )
    p_spans.add_argument("file", help="span JSONL written by 'repro serve "
                         "--spans' or by --telemetry")
    p_spans.add_argument("--trace", default=None, metavar="TRACE_ID",
                         help="render only this trace (e.g. t000003)")
    p_spans.add_argument("--limit", type=int, default=None, metavar="N",
                         help="render only the last N traces")
    p_spans.add_argument("--json", action="store_true",
                         help="emit normalized span records (wall_ms stripped) "
                         "as JSONL instead of trees")

    p_top = sub.add_parser(
        "top",
        help="live per-shard ops table polled from a running server's "
        "/metrics endpoint",
    )
    p_top.add_argument("--url", default=None, metavar="METRICS_URL",
                       help="full /metrics URL (overrides --port-file)")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port-file", default=None, metavar="PATH",
                       help="read metrics_port from a 'repro serve "
                       "--port-file' JSON document")
    p_top.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS", help="refresh period (default: 2)")
    p_top.add_argument("--count", type=int, default=0, metavar="N",
                       help="stop after N refreshes (0 = until interrupted)")
    return parser


def _generate(workload: str, **kwargs) -> Instance:
    """Build the ``--workload`` instance named ``workload``."""
    import repro.workloads

    return getattr(repro.workloads, f"{workload.replace('-', '_')}_workload")(
        **kwargs
    )


def _make_instance(args: argparse.Namespace) -> Instance:
    """The command's instance: its ``--trace`` file when given, else its
    ``--workload`` generated; a trace that cannot be read exits with one
    ``repro <command>: ...`` line."""
    if getattr(args, "trace", None) is not None:
        from repro.workloads.trace import load_instance

        try:
            return load_instance(args.trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"repro {args.command}: cannot read trace {args.trace}: {exc}"
            )
    kwargs: dict = {"delta": args.delta, "seed": args.seed}
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    return _generate(args.workload, **kwargs)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit(f"expected comma-separated integers, got {text!r}")


def _sweep_build(workload: str, horizon: int | None, point: Mapping) -> Instance:
    """Build one sweep cell's instance.

    Module-level (with ``functools.partial`` for the fixed arguments) so the
    parallel sweep can pickle it into worker processes.
    """
    kwargs: dict = {"delta": point["delta"], "seed": point["seed"]}
    if horizon is not None:
        kwargs["horizon"] = horizon
    return _generate(workload, **kwargs)


def _sweep_run(instance: Instance, point: Mapping) -> Mapping:
    result = solve_online(instance, n=point["n"], record_events=False)
    return dict(result.ledger.summary())


def _run_sweep_command(args: argparse.Namespace) -> int:
    from repro.experiments.runner import resolve_jobs
    from repro.experiments.sweeps import SweepResult, grid, run_sweep

    deltas = _int_list(args.deltas)
    ns = _int_list(args.ns)
    seeds = _int_list(args.seeds)
    if not (deltas and ns and seeds):
        raise SystemExit("sweep needs at least one delta, one n, and one seed")
    points = grid(delta=deltas, n=ns, seed=seeds)
    jobs = resolve_jobs(args.jobs)
    sweep = run_sweep(
        points,
        partial(_sweep_build, args.workload, args.horizon),
        _sweep_run,
        jobs=jobs,
    )
    if args.value not in sweep.rows[0]:
        choices = sorted(k for k in sweep.rows[0] if k not in ("delta", "n", "seed"))
        raise SystemExit(f"unknown --value {args.value!r}; choose from {choices}")
    aggregated = SweepResult()
    for delta in deltas:
        for n in ns:
            cells = sweep.where(delta=delta, n=n).column(args.value)
            aggregated.rows.append({
                "delta": delta, "n": n,
                args.value: round(statistics.fmean(cells), 3),
            })
    table = aggregated.pivot(
        "delta", "n", args.value,
        title=f"{args.workload}: mean {args.value} over {len(seeds)} seed(s)",
    )
    print(table.render())
    print(f"\n{len(points)} cells (jobs={jobs})")
    return 0


def _run_opt_command(args: argparse.Namespace) -> int:
    from repro.opt import (
        SearchBudgetExceeded,
        ratio_dashboard,
        render_dashboard,
        solve_opt,
        write_bench,
    )

    try:
        if args.workload is not None or args.trace is not None:
            # Single-solve mode: one instance, one validated optimum.
            instance = _make_instance(args)
            m = args.m if args.m is not None else args.n
            result = solve_opt(
                instance,
                m,
                horizon=args.horizon,
                max_states=args.max_states,
                engine=args.engine,
            )
            if args.json:
                print(json.dumps({
                    "instance": instance.name,
                    "m": result.m,
                    "horizon": result.horizon,
                    "backend": result.backend,
                    "opt_cost": result.cost,
                    "reconfigs": result.reconfig_count,
                    "executed": result.executed,
                    "unserved": result.unserved,
                    "excluded_jobs": result.excluded_jobs,
                    "states": result.states,
                    "validated": result.validated,
                    "digest": result.digests["run"],
                }, indent=2, sort_keys=True))
            else:
                print(f"instance: {instance.name}  {instance.notation()}  "
                      f"jobs={instance.sequence.num_jobs} "
                      f"horizon={result.horizon}")
                print(f"  OPT (m={result.m}, backend={result.backend}): "
                      f"{result.cost}")
                print(f"  reconfigs: {result.reconfig_count} "
                      f"(cost {result.reconfig_cost})  "
                      f"unserved: {result.unserved} "
                      f"(cost {result.drop_cost})")
                if result.excluded_jobs:
                    print(f"  excluded by horizon: {result.excluded_jobs}")
                print(f"  search states: {result.states}")
                print(f"  validated: {result.validated} "
                      f"(checker + digest {result.digests['run'][:16]}…)")
            return 0

        payload = ratio_dashboard(
            args.scale, engine=args.engine, max_states=args.max_states
        )
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(render_dashboard(payload))
        out = write_bench(payload, args.out)
        print(f"wrote {out}")
        return 0 if payload["ok"] else 1
    except SearchBudgetExceeded as exc:
        raise SystemExit(
            f"repro opt: {exc} (shrink the instance with --horizon, or "
            f"raise --max-states)"
        )


def _scrape_metrics(url: str) -> dict:
    """Fetch a live /metrics endpoint and parse it back into a snapshot."""
    import urllib.error
    import urllib.request

    from repro.telemetry import parse_prometheus

    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise SystemExit(f"cannot scrape {url}: {exc}")
    return parse_prometheus(text)


def _run_metrics_command(args: argparse.Namespace) -> int:
    from repro import telemetry as tele

    if args.url is not None and args.input is not None:
        raise SystemExit("--url and --input are mutually exclusive")
    if args.url is not None:
        snapshot = _scrape_metrics(args.url)
        title = f"telemetry — {args.url}"
    elif args.input is not None:
        try:
            payload = json.loads(Path(args.input).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro metrics: cannot read {args.input}: {exc}")
        snapshot = (
            payload.get("telemetry", payload)
            if isinstance(payload, dict)
            else payload
        )
        if not isinstance(snapshot, dict) or "counters" not in snapshot:
            raise SystemExit(
                f"repro metrics: {args.input} holds neither a metrics "
                "snapshot nor a runner-stats payload with a 'telemetry' "
                "section"
            )
        title = f"telemetry — {args.input}"
    else:
        instance = _make_instance(args)
        with tele.recording(
            tele.TelemetryRecorder(trace=args.telemetry)
        ) as rec:
            if args.policy == "pipeline":
                solve_online(instance, n=args.n, record_events=False)
            else:
                policy = make_policy(args.policy, instance.delta)
                simulate(instance, policy, n=args.n, record_events=False)
        snapshot = rec.snapshot()
        title = (
            f"telemetry — {instance.name}, policy={args.policy}, n={args.n}"
        )
    if args.format == "prom":
        sys.stdout.write(tele.render_prometheus(snapshot))
    else:
        print(tele.render_table(snapshot, title=title).render())
        if args.input is None and args.url is None and args.telemetry:
            print(f"\nwrote telemetry trace to {args.telemetry}")
    return 0


def _run_loadgen_command(args: argparse.Namespace) -> int:
    from repro.serve import LoadgenError, run_loadgen

    port = args.port
    if port is None and args.port_file:
        try:
            port = json.loads(Path(args.port_file).read_text())["port"]
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot read port from {args.port_file}: {exc}")
    if port is None:
        raise SystemExit("loadgen needs --port or --port-file")
    instance = _make_instance(args)
    tenants = None
    if args.tenants:
        from repro.serve import TenantError, load_plan

        try:
            tenants = [c.to_dict() for c in load_plan(args.tenants)]
        except (OSError, ValueError, TenantError) as exc:
            raise SystemExit(f"cannot read tenant plan {args.tenants}: {exc}")
    try:
        report = run_loadgen(
            args.host,
            port,
            instance,
            verify=not args.no_verify,
            tenants=tenants,
            connect_attempts=args.connect_attempts,
        )
    except (LoadgenError, ConnectionError, OSError) as exc:
        raise SystemExit(f"repro loadgen: {exc}")
    payload = report.as_dict()
    lat = payload["latency_ms"]
    print(f"replayed {payload['jobs']} jobs over {payload['rounds']} rounds "
          f"in {payload['wall_seconds']:.3f}s "
          f"({payload['jobs_per_second']:.0f} jobs/s, "
          f"{payload['rounds_per_second']:.0f} rounds/s)")
    print(f"executed {payload['executed']}, dropped {payload['dropped']}, "
          f"total cost {payload['total_cost']}")
    if payload.get("shed"):
        print(f"tenant shedding: {payload['shed']} job(s) shed by contract "
              f"meters (excluded from verification)")
    print(f"tick latency: p50 {lat['p50']:.3f}ms  p99 {lat['p99']:.3f}ms  "
          f"mean {lat['mean']:.3f}ms")
    if payload["digests_match"] is not None:
        state = "MATCH" if payload["digests_match"] else "MISMATCH"
        print(f"digest verification ({report.params.get('shards', '?')} "
              f"shard(s), offline replay): {state}")
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0 if payload["digests_match"] in (True, None) else 1


def _run_spans_command(args: argparse.Namespace) -> int:
    from repro.telemetry import normalize_span, read_spans, render_traces

    try:
        header, spans = read_spans(args.file)
    except OSError as exc:
        raise SystemExit(f"repro spans: {exc}")
    if header is None and not spans:
        raise SystemExit(
            f"repro spans: {args.file} holds no repro-trace-v2 records"
        )
    if args.json:
        for span in spans:
            if args.trace is not None and span.get("trace") != args.trace:
                continue
            print(json.dumps(normalize_span(span), sort_keys=True))
        return 0
    print(render_traces(spans, trace=args.trace, limit=args.limit))
    return 0


def _render_top(snapshot: Mapping, title: str) -> str:
    """The ``repro top`` frame: per-shard ops table plus server summary."""
    from repro.analysis.reporting import Table
    from repro.telemetry.quantiles import histogram_quantile
    from repro.telemetry.registry import parse_label_key

    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})

    def by_shard(series: Mapping, combine: Callable) -> dict:
        out: dict = {}
        for key, value in series.items():
            shard = parse_label_key(key).get("shard")
            if shard is None:
                continue
            out[shard] = combine(out[shard], value) if shard in out else value
        return out

    def add(a, b):
        return a + b

    def merge_cells(a: dict, b: dict) -> dict:
        return {
            "bounds": a["bounds"],
            "buckets": [x + y for x, y in zip(a["buckets"], b["buckets"])],
            "sum": a["sum"] + b["sum"],
            "count": a["count"] + b["count"],
        }

    rounds = by_shard(counters.get("repro_rounds_total", {}), add)
    pending = by_shard(gauges.get("repro_pending_jobs", {}), max)
    drops = by_shard(counters.get("repro_drops_total", {}), add)
    execs = by_shard(counters.get("repro_executions_total", {}), add)
    respawns = by_shard(
        counters.get("repro_serve_worker_respawns_total", {}), add
    )
    tick = by_shard(
        histograms.get("repro_serve_round_seconds", {}), merge_cells
    )

    shards = sorted(
        set(rounds) | set(pending) | set(drops) | set(execs)
        | set(respawns) | set(tick),
        key=lambda s: (not s.isdigit(), int(s) if s.isdigit() else 0, s),
    )
    lines = []
    if shards:
        table = Table(
            ["shard", "rounds", "pending", "executed", "dropped",
             "respawns", "tick p95 ms"],
            title=title,
        )
        for shard in shards:
            cell = tick.get(shard)
            table.add_row(
                shard,
                rounds.get(shard, 0),
                int(pending.get(shard, 0)),
                execs.get(shard, 0),
                drops.get(shard, 0),
                respawns.get(shard, 0),
                f"{histogram_quantile(cell, 0.95) * 1e3:.3f}" if cell else "-",
            )
        lines.append(table.render())
    else:
        lines.append(f"{title}: no per-shard series yet")

    def total(name: str):
        return sum(counters.get(name, {}).values())

    summary = [f"ticks {total('repro_serve_ticks_total')}"]
    cell = histograms.get("repro_serve_round_seconds", {}).get("")
    if cell:
        summary.append(
            f"tick p95 {histogram_quantile(cell, 0.95) * 1e3:.3f}ms "
            f"p99 {histogram_quantile(cell, 0.99) * 1e3:.3f}ms"
        )
    cell = histograms.get("repro_serve_admission_seconds", {}).get("")
    if cell:
        summary.append(
            f"admission p95 {histogram_quantile(cell, 0.95) * 1e3:.3f}ms"
        )
    pending_all = gauges.get("repro_serve_pending_jobs", {}).get("")
    if pending_all is not None:
        summary.append(f"pending {int(pending_all)}")
    failures = total("repro_serve_worker_scrape_failures_total")
    if failures:
        summary.append(f"scrape failures {failures}")
    lines.append("server: " + "  |  ".join(summary))
    return "\n".join(lines)


def _run_top_command(args: argparse.Namespace) -> int:
    import time

    url = args.url
    if url is None and args.port_file:
        try:
            ports = json.loads(Path(args.port_file).read_text())
            metrics_port = ports["metrics_port"]
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot read ports from {args.port_file}: {exc}")
        if metrics_port is None:
            raise SystemExit(
                "the server was started without an HTTP listener "
                "(--metrics-port -1); repro top needs /metrics"
            )
        url = f"http://{args.host}:{metrics_port}/metrics"
    if url is None:
        raise SystemExit("repro top needs --url or --port-file")
    refreshed = 0
    while True:
        snapshot = _scrape_metrics(url)
        if refreshed:
            print()
        print(_render_top(snapshot, title=f"repro top — {url}"))
        refreshed += 1
        if args.count and refreshed >= args.count:
            return 0
        try:
            time.sleep(max(args.interval, 0.05))
        except KeyboardInterrupt:
            return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly like a
        # well-behaved unix tool.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


def _main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.experiments.registry import EXPERIMENTS

        print("experiments:")
        for eid in EXPERIMENTS:
            print(f"  {eid}")
        print("workloads:")
        for name in sorted(WORKLOADS):
            print(f"  {name}")
        print("scenario instances: background-shortterm (see repro.workloads)")
        return 0

    if args.command == "experiment":
        from repro.experiments.registry import run_experiment

        result = run_experiment(args.experiment_id, args.scale)
        print(result.render())
        return 0 if result.all_passed else 1

    if args.command == "all":
        from repro.experiments.runner import run_parallel

        report = run_parallel(
            scale=args.scale, jobs=args.jobs, collect_telemetry=args.stats
        )
        for result in report.results.values():
            print(result.render())
            print()
        print(f"{len(report.results) - report.failures}/{len(report.results)} "
              f"experiments passed all checks")
        if args.stats:
            print()
            print(report.stats_table().render())
            stats_path = report.write_stats(args.stats_out)
            print(f"\nwrote {stats_path}")
        # Nonzero whenever CI must not silently pass: a failed check.
        return 0 if report.failures == 0 else 1

    if args.command == "sweep":
        return _run_sweep_command(args)

    if args.command == "solve":
        from contextlib import nullcontext

        from repro import telemetry as tele

        instance = _make_instance(args)
        ctx = (
            tele.recording(tele.TelemetryRecorder(trace=args.telemetry))
            if args.telemetry
            else nullcontext()
        )
        with ctx:
            if args.policy == "pipeline":
                result = solve_online(instance, n=args.n, record_events=False)
                summary = result.ledger.summary()
                schedule = result.schedule
            else:
                from repro.analysis.metrics import collect_metrics

                policy = make_policy(args.policy, instance.delta)
                run = simulate(instance, policy, n=args.n,
                               record_events=False, engine=args.engine)
                summary = collect_metrics(run).as_dict()
                schedule = run.schedule
        if args.telemetry:
            print(f"wrote telemetry trace to {args.telemetry}")
        print(f"instance: {instance.name}  {instance.notation()}  "
              f"jobs={instance.sequence.num_jobs} horizon={instance.horizon}")
        for key, value in summary.items():
            print(f"  {key}: {value}")
        if args.timeline:
            from repro.analysis.timeline import render_timeline

            print()
            print(render_timeline(schedule, instance.sequence))
        return 0

    if args.command == "trace":
        from repro.workloads.trace import save_instance

        instance = _make_instance(args)
        save_instance(instance, args.out)
        print(f"wrote {instance.sequence.num_jobs} jobs "
              f"({instance.notation()}) to {args.out}")
        if args.telemetry:
            from repro import telemetry as tele
            from repro.core.notation import recommended_solver

            solver = recommended_solver(instance)
            with tele.recording(
                tele.TelemetryRecorder(trace=args.telemetry)
            ) as rec:
                result = solver(instance, n=16)
            rounds = rec.snapshot()["counters"].get(
                "repro_rounds_total", {}
            ).get("", 0)
            print(f"wrote telemetry trace ({rounds} rounds, "
                  f"total_cost={result.ledger.total_cost}) to {args.telemetry}")
        return 0

    if args.command == "verify":
        from repro.analysis.verify import verify_run
        from repro.core.notation import classify, recommended_solver

        instance = _make_instance(args)
        cls = classify(instance)
        solver = recommended_solver(instance)
        print(f"instance: {instance.name}  {cls.notation()}  "
              f"-> {cls.theorem} via {cls.solver_name()} (n={args.n})")
        result = solver(instance, n=args.n)
        report = verify_run(result)
        print(report.render())
        print(f"cost: {result.ledger.summary()}")
        return 0 if report.ok else 1

    if args.command == "opt":
        return _run_opt_command(args)

    if args.command == "metrics":
        return _run_metrics_command(args)

    if args.command == "serve":
        from repro.serve import ServeConfig, serve_forever

        # A bad config or plan, a busy port, a journal that cannot be
        # opened or refused a record: one line, exit status 1.
        try:
            config = ServeConfig(
                host=args.host,
                port=args.port,
                metrics_port=None if args.metrics_port < 0 else args.metrics_port,
                n=args.n,
                delta=args.delta,
                policy=args.policy,
                shards=args.shards,
                speed=args.speed,
                engine=args.engine,
                clock=args.clock,
                round_interval=args.round_interval,
                max_pending=args.max_pending,
                journal=args.journal,
                spans=args.spans,
                port_file=args.port_file,
                workers=args.workers,
                worker_retries=args.worker_retries,
                worker_timeout=args.worker_timeout,
                tenants=args.tenants,
                idle_timeout=args.idle_timeout,
            )
            return serve_forever(config, quiet=args.quiet)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"repro serve: {exc}")

    if args.command == "loadgen":
        return _run_loadgen_command(args)

    if args.command == "spans":
        return _run_spans_command(args)

    if args.command == "top":
        return _run_top_command(args)

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

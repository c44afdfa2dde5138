"""``serve-heavy`` and ``serve-durable``: the live server under a closed loop.

The server runs in its own process (:mod:`launcher`); this process is
the load generator, with one blocking connection on a client-driven
clock.  Every round it sends that round's ``submit`` frame, waits for
the ``accept``, sends ``tick`` and waits for the ``result``, so a slow
server receives less load.  Submit frames are encoded before the timed
phase, which leaves the client only the decoding of replies inside a
round; that time is reported as ``loadgen.client_s``.

One run generates one instance from the seed and replays it through
several fresh server processes ("sessions"), each from launch to the
last round: set-up time is sampled once per session.  Every session's
digests must equal the offline recomputation
(:func:`repro.serve.loadgen.verify_offline`).  ``serve-durable`` also
checks the tenant contract (the victim sheds nothing, the adversary
sheds exactly its over-rate excess) and rebuilds the session from its
journal with :func:`repro.serve.journal.replay_session`.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness
from harness import BenchError, fresh_heap, now

N = 16
DELTA = 4
POLICY = "dlru-edf"
MIN_SESSIONS = 3
READY_TIMEOUT_S = 60.0
#: seconds of rounds between two CPU probes.
SEGMENT_S = 0.2


@dataclass(frozen=True)
class Spec:
    shards: int
    rounds: int
    durable: bool  # workers + journal + tenant plan


SPECS = {
    "serve-heavy": Spec(shards=1, rounds=24 if harness.SMOKE else 200, durable=False),
    "serve-durable": Spec(shards=2, rounds=48 if harness.SMOKE else 2048, durable=True),
}


def _instance(spec: Spec, seed: int):
    """The load: ``(instance, tenant plan or None)``."""
    from repro.workloads import (
        poisson_workload,
        tenant_flood_instance,
        tenant_flood_plan,
    )

    if not spec.durable:
        # The `heavy` generator of the serve soak benchmark.
        instance = poisson_workload(
            num_colors=64, rate=8.0, delta=DELTA, seed=seed,
            horizon=spec.rounds, name="heavy",
        )
        return instance, None
    plan = tenant_flood_plan(
        shards=spec.shards, delta=DELTA, rate=2, colors_per_tenant=4
    )
    instance = tenant_flood_instance(
        plan, horizon=spec.rounds, flood_factor=8, seed=seed, delta=DELTA
    )
    return instance, plan


def _frames(instance) -> tuple[list[bytes | None], list[int]]:
    """Pre-encoded submit frame and job count of every round."""
    from repro.serve.protocol import encode_frame, job_to_wire

    frames, sizes = [], []
    for rnd in range(instance.horizon):
        jobs = list(instance.sequence.request(rnd))
        sizes.append(len(jobs))
        frames.append(
            encode_frame({
                "type": "submit",
                "id": f"r{rnd}",
                "jobs": [job_to_wire(job) for job in jobs],
            })
            if jobs
            else None
        )
    return frames, sizes


class _Client:
    """One blocking loopback connection; times its own frame decoding."""

    def __init__(self, port: int):
        from repro.serve.protocol import decode_frame

        self._decode = decode_frame
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.decode_s = 0.0

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise BenchError("server closed the connection")
        start = now()
        frame = self._decode(line)
        self.decode_s += now() - start
        return frame

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _Server:
    """A launcher process: spawn, wait until it listens, stop."""

    def __init__(self, work: Path, tag: str, config: dict, telemetry: str, trace_dir):
        self.port_file = work / f"port-{tag}.json"
        config_file = work / f"server-{tag}.json"
        config_file.write_text(json.dumps({**config, "port_file": str(self.port_file)}))
        self.log = open(work / f"server-{tag}.log", "wb")
        args = [sys.executable, str(harness.BENCH_DIR / "launcher.py"),
                str(config_file), "--telemetry", telemetry]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        self.proc = subprocess.Popen(
            args, cwd=harness.ROOT, env=harness.child_env(work),
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
        )

    def wait_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} at start-up")
            try:
                return int(json.loads(self.port_file.read_text())["port"])
            except (OSError, ValueError, KeyError):
                time.sleep(0.002)
        raise BenchError("server did not listen in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _config(spec: Spec, work: Path, tag: str) -> dict:
    config = {"n": N, "delta": DELTA, "policy": POLICY, "shards": spec.shards}
    if spec.durable:
        config.update(
            workers=True,
            journal=str(work / f"journal-{tag}.jsonl"),
            tenants=str(work / "plan.json"),
        )
    return config


def _session(spec, frames, sizes, work, tag, cal, telemetry="on", trace_dir=None) -> dict:
    """Launch a server, replay every round through it, stop it.

    ``cal`` probes from this process while the server waits for its next
    frame; the run is pinned to one CPU, so that is the CPU the server
    and its shard workers ran on.
    """
    config = _config(spec, work, tag)
    cal.rebase()
    start = now()
    server = _Server(work, tag, config, telemetry, trace_dir)
    try:
        client = _Client(server.wait_port())
        try:
            client.send(b'{"type":"hello","proto":"repro-serve-v1","client":"perfbench"}\n')
            welcome = client.recv()
            if welcome.get("type") != "welcome":
                raise BenchError(f"expected welcome, got {welcome}")
            raw_setup = now() - start
            setup = raw_setup * cal.scale(raw_setup)
            out = _replay(client, frames, sizes, cal)
            out["setup_s"] = setup
            out["params"] = {
                key: welcome[key]
                for key in ("n", "shards", "shard_capacity", "delta", "speed",
                            "policy", "engine", "max_pending")
            }
            client.send(b'{"type":"stats"}\n')
            stats = client.recv()
            shards = stats.get("shards", [])
            out["digests"] = [shard["digests"] for shard in shards]
            out["drops"] = sum(shard["ledger"]["drop_count"] for shard in shards)
            out["reconfigs"] = sum(shard["ledger"]["reconfig_count"] for shard in shards)
            client.send(b'{"type":"bye"}\n')
            client.recv()
        finally:
            client.close()
        out["peak_rss_mb"] = harness.tree_peak_rss_mib(server.proc.pid)
    finally:
        server.stop()
    out["journal"] = config.get("journal")
    return out


def _replay(client: _Client, frames, sizes, cal) -> dict:
    """The timed phase: every round, raw and scaled to the reference CPU."""
    tick = b'{"type":"tick"}\n'
    raw: list[float] = []
    scaled: list[float] = []
    shed_uids: list[int] = []
    rejects = errors = 0
    result: dict = {}
    client.decode_s = 0.0
    fresh_heap()
    clock = now
    cal.rebase()
    segment_start = clock()
    for rnd, frame in enumerate(frames):
        start = clock()
        if frame is not None:
            client.send(frame)
            reply = client.recv()
            if reply.get("type") == "accept":
                shed_uids.extend(reply.get("shed_uids", ()))
            elif reply.get("type") == "reject":
                rejects += 1
            else:
                errors += 1
        client.send(tick)
        result = client.recv()
        end = clock()
        raw.append(end - start)
        if result.get("type") != "result" or result.get("round") != rnd:
            errors += 1
        if end - segment_start >= SEGMENT_S or rnd == len(frames) - 1:
            segment = raw[len(scaled):]
            factor = cal.scale(sum(segment))
            scaled.extend(x * factor for x in segment)
            segment_start = clock()
    return {
        "rounds_raw_s": raw,
        "rounds_s": scaled,
        "wall_s": sum(scaled),
        "client_s": client.decode_s,
        "jobs": sum(sizes),
        "frames": len(frames) + sum(1 for f in frames if f is not None),
        "shed_uids": shed_uids,
        "rejects": rejects,
        "errors": errors,
        "pending_end": result.get("pending"),
    }


# -- correctness ------------------------------------------------------------------


def _offline_digests(instance, session: dict) -> list[dict]:
    from repro.serve.loadgen import verify_offline

    return verify_offline(
        instance, session["params"], len(session["rounds_s"]),
        exclude_uids=frozenset(session["shed_uids"]),
    )


def _replayed_digests(session: dict) -> list[dict]:
    """Rebuild the session from its journal in this process."""
    from repro.policies import make_policy
    from repro.serve.journal import read_records, replay_session
    from repro.serve.session import ShardedSession

    params = session["params"]
    rebuilt = ShardedSession(
        n=params["n"], delta=params["delta"],
        policy_factory=lambda: make_policy(params["policy"], params["delta"]),
        shards=params["shards"], speed=params["speed"], engine=params["engine"],
    )
    replay_session(read_records(session["journal"]), rebuilt)
    return [shard.digests() for shard in rebuilt.shards]


def _checks(spec: Spec, instance, plan, sessions: list[dict]) -> list[tuple[str, bool]]:
    oracle = _offline_digests(instance, sessions[0])
    checks = [
        ("every submit accepted, no error frame",
         all(s["rejects"] == 0 and s["errors"] == 0 for s in sessions)),
        ("every session drained", all(s["pending_end"] == 0 for s in sessions)),
        ("server digests match the offline replay",
         all(s["digests"] == oracle for s in sessions)),
    ]
    if spec.durable:
        victim, adversary = plan["tenants"]
        colors = {c: t["name"] for t in plan["tenants"] for c in t["colors"]}
        by_uid = {job.uid: colors[job.color] for job in instance.sequence.jobs()}
        arrival_rounds = instance.metadata["last_arrival"] + 1
        excess = (adversary["rate"] * instance.metadata["flood_factor"]
                  - adversary["rate"]) * arrival_rounds
        for s in sessions:
            shed = [by_uid[uid] for uid in s["shed_uids"]]
            s["shed_by"] = {t: shed.count(t) for t in (victim["name"], adversary["name"])}
        checks += [
            ("victim tenant sheds nothing",
             all(s["shed_by"][victim["name"]] == 0 for s in sessions)),
            ("adversary sheds exactly its over-rate excess",
             all(s["shed_by"][adversary["name"]] == excess for s in sessions)),
        ]
    return checks


# -- the benchmark side -----------------------------------------------------------


def _prepare(workload: str, seed: int, work: Path):
    spec = SPECS[workload]
    start = now()
    instance, plan = _instance(spec, seed)
    generate_s = now() - start
    if plan is not None:
        (work / "plan.json").write_text(json.dumps(plan))
    frames, sizes = _frames(instance)
    return spec, instance, plan, frames, sizes, generate_s


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    spec, instance, plan, frames, sizes, _ = _prepare(workload, seed, work)
    cal = harness.Calibrator()
    sessions: list[dict] = []
    while len(sessions) < MIN_SESSIONS or sum(s["wall_s"] for s in sessions) < seconds:
        sessions.append(_session(spec, frames, sizes, work, str(len(sessions)), cal))
    checks = _checks(spec, instance, plan, sessions)
    if spec.durable:
        checks.append(("journal replay reproduces the server digests",
                       _replayed_digests(sessions[0]) == sessions[0]["digests"]))
    rounds = [r for s in sessions for r in s["rounds_s"]]
    lat = harness.latency_stats(rounds)
    wall = sum(s["wall_s"] for s in sessions)
    failed_ops = sum(s["rejects"] + s["errors"] for s in sessions)
    return {
        "metrics": {
            "setup_s": harness.median([s["setup_s"] for s in sessions]),
            "jobs_per_s": sum(s["jobs"] for s in sessions) / wall,
            "round_p50_ms": lat["p50_ms"],
            "round_p90_ms": lat["p90_ms"],
            "pass_s": harness.median([s["wall_s"] for s in sessions]),
            "peak_rss_mb": harness.median([s["peak_rss_mb"] for s in sessions]),
        },
        "attempted": sum(s["frames"] for s in sessions) + len(checks),
        "failed": failed_ops + sum(not ok for _, ok in checks),
        "checks": checks,
        "notes": [
            f"{len(sessions)} sessions x {len(frames)} rounds, "
            f"{sum(sizes)} jobs offered per session",
            f"round samples {lat['samples']} ({lat['beyond_p90']} beyond p90), "
            f"raw-to-reference CPU factor {cal.mean_factor:.3f}",
        ],
    }


def _load_traces(trace_dir: Path) -> tuple[dict, list[dict]]:
    main = json.loads((trace_dir / "main.json").read_text())
    workers = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("worker-*.json"))]
    return main, workers


def trace(workload: str, seed: int, work: Path) -> dict:
    spec, instance, plan, frames, sizes, generate_s = _prepare(workload, seed, work)
    cal = harness.Calibrator()
    # Telemetry on (as shipped) and off, interleaved, then the traced run.
    plain, quiet = [], []
    for k in range(2):
        plain.append(_session(spec, frames, sizes, work, f"on{k}", cal))
        quiet.append(_session(spec, frames, sizes, work, f"off{k}", cal, telemetry="off"))
    trace_dir = work / "trace"
    trace_dir.mkdir()
    traced = _session(spec, frames, sizes, work, "traced", cal, trace_dir=trace_dir)
    sessions = plain + quiet + [traced]
    checks = _checks(spec, instance, plan, sessions)
    replay_s = 0.0
    if spec.durable:
        start = now()
        replayed = _replayed_digests(traced)
        replay_s = now() - start
        checks.append(("journal replay reproduces the server digests",
                       replayed == traced["digests"]))

    main, workers = _load_traces(trace_dir)
    e2e = sum(traced["rounds_raw_s"])
    covered = traced["client_s"] + sum(main["self_s"].values())
    other = e2e - covered
    checks.append(("layer self times do not exceed the round time",
                   other >= -harness.SUM_TOLERANCE * e2e))

    layers: dict[str, float] = dict(main["self_s"])
    counters = dict(main["counters"])
    calls = dict(main["calls"])
    busy = 0.0
    for snap in workers:
        for name, value in snap["self_s"].items():
            layers[name] = layers.get(name, 0.0) + value
            if name != "core.make_simulator":
                busy += value
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    layers["core.make_simulator"] = (
        main["ignored_s"].get("core.make_simulator", 0.0)
        + layers.get("core.make_simulator", 0.0)
    )
    offered = sum(sizes)
    median_on = harness.median([r for s in plain for r in s["rounds_s"]])
    median_off = harness.median([r for s in quiet for r in s["rounds_s"]])
    untraced = harness.median([s["wall_s"] for s in plain])
    extra = {
        "workloads.generate_s": generate_s,
        # Every session drains, so each admitted job executed or dropped.
        "core.arrivals": offered - len(traced["shed_uids"]),
        "core.drops": traced["drops"],
        "core.executions": offered - len(traced["shed_uids"]) - traced["drops"],
        "core.reconfigs": traced["reconfigs"],
        "core.resources.noop_frac": harness.ratio(
            counters.get("core.resources.noops", 0), counters.get("core.resources.calls", 0)),
        "policies.desired_cache_hit_frac": harness.ratio(
            counters.get("policies.desired_hits", 0), counters.get("policies.desired_calls", 0)),
        "serve.protocol.bytes_in": counters.get("serve.protocol.bytes_in", 0),
        "serve.protocol.bytes_out": counters.get("serve.protocol.bytes_out", 0),
        "serve.session.rejects": traced["rejects"],
        "serve.tenants.shed_frac": len(traced["shed_uids"]) / offered,
        "utils.jsonl.appends": calls.get("utils.jsonl.append", 0),
        "serve.journal.replay_s": replay_s,
        "serve.workers.ipc_wait_s": (
            layers.get("serve.workers.validate", 0.0) + layers.get("serve.workers.tick", 0.0)
            - busy / spec.shards
            if workers else 0.0
        ),
        "serve.server.other_s": other,
        "loadgen.client_s": traced["client_s"],
        "telemetry.overhead_frac": (median_on - median_off) / median_off,
        "trace.overhead_frac": (traced["wall_s"] - untraced) / untraced,
        "trace.e2e_s": e2e,
        "trace.unattributed_frac": other / e2e,
    }
    return {
        "layers": layers,
        "extra": extra,
        "attempted": sum(s["frames"] for s in sessions) + len(checks),
        "failed": sum(s["rejects"] + s["errors"] for s in sessions)
        + sum(not ok for _, ok in checks),
        "checks": checks,
        "notes": [
            f"traced session {traced['wall_s']:.3f} s, untraced {untraced:.3f} s; "
            f"median round {median_on * 1e3:.3f} ms with telemetry, "
            f"{median_off * 1e3:.3f} ms without; {len(workers)} worker traces",
            f"main-process spans {sum(main['self_s'].values()):.3f} s, client "
            f"{traced['client_s']:.3f} s, unattributed {other:.3f} s of {e2e:.3f} s",
        ],
    }

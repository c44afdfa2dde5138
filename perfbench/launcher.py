"""Start one scheduling server in its own process, as ``repro serve`` would.

The benchmark's client talks to this process over loopback, so the
server's work and the load generator's work land on different
processes.  Beyond what ``repro serve`` does, the launcher can replace
the shipped telemetry recorder with the null one, and can install the
span tracer before the server (and any shard worker it forks) starts::

    python3 perfbench/launcher.py CONFIG.json [--telemetry off] [--trace-dir DIR]

``CONFIG.json`` holds :class:`repro.serve.server.ServeConfig` fields; the
server writes its port file when it listens and stops on SIGTERM.  With
``--trace-dir`` the main process writes ``main.json`` there when it
stops, and every shard worker writes ``worker-<pid>.json`` when it exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
from pathlib import Path

import harness


def _dump(tracer, path: Path) -> None:
    path.write_text(json.dumps(tracer.snapshot()))


def _trace_workers(tracer, trace_dir: Path) -> None:
    """Make every forked shard worker trace itself and dump at exit."""
    try:
        from repro.serve import workers
    except ImportError:
        return
    original = getattr(workers, "_shard_worker_main", None)
    if original is None:
        return

    def traced_worker_main(conn, *args):
        tracer.reset()
        try:
            original(conn, *args)
        finally:
            _dump(tracer, trace_dir / f"worker-{os.getpid()}.json")

    workers._shard_worker_main = traced_worker_main


async def _serve(server) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, server.request_stop)
    await server.serve_until_stopped()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--telemetry", choices=("on", "off"), default="on")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    harness.require_sources()
    fields = json.loads(Path(args.config).read_text())

    tracer = None
    if args.trace_dir:
        from repro.policies import make_policy
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_core()
        tracer.install_policy(type(make_policy(fields["policy"], fields["delta"])))
        tracer.install_serve()
        _trace_workers(tracer, Path(args.trace_dir))

    from repro.serve.server import SchedulingServer, ServeConfig
    from repro.telemetry.recorder import NullRecorder

    config = ServeConfig(**fields)
    server = SchedulingServer(
        config, telemetry=NullRecorder() if args.telemetry == "off" else None
    )
    asyncio.run(_serve(server))
    if tracer is not None:
        _dump(tracer, Path(args.trace_dir) / "main.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

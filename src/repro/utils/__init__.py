"""Small dependency-free utilities shared across subsystems.

- :mod:`repro.utils.jsonl` — the one JSONL encoder, fsync-append
  journal writer, and torn-tail-tolerant reader used by the telemetry
  trace writer and the serve session journal.
- :mod:`repro.utils.procs` — pipe-driven child processes and
  deterministic retry backoff for the serve layer's shard workers.
"""

from repro.utils.jsonl import JsonlJournal, json_line, read_jsonl
from repro.utils.procs import PipeWorker, retry_backoff

__all__ = [
    "JsonlJournal",
    "PipeWorker",
    "json_line",
    "read_jsonl",
    "retry_backoff",
]

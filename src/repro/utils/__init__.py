"""Small dependency-free utilities shared across subsystems.

- :mod:`repro.utils.jsonl` — the one JSONL encoder (shared by the span
  trace writer and the serve session journal), the fsync-append journal
  writer and its torn-tail-tolerant reader.
- :mod:`repro.utils.procs` — pipe-driven child processes for the serve
  layer's shard workers, and the retry backoff ladder.
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

"""JSONL encoding and crash-safe append journals.

Two subsystems write newline-delimited JSON with the same durability
story — the telemetry trace writer (:mod:`repro.telemetry.trace`) and
the serve session journal (:mod:`repro.serve.server`).  This module is
the single implementation they share:

- :func:`json_line` — the canonical one-record encoding (sorted keys,
  ``default=str``, trailing newline), so every JSONL artifact in the
  repo is diffable with every other;
- :class:`JsonlJournal` — the append journal for long-lived writers
  (one fsync per record without re-opening the file each time).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

__all__ = ["JsonlJournal", "json_line", "read_jsonl"]


def json_line(record: Mapping) -> str:
    """Encode one record as a JSON line (sorted keys, newline-terminated)."""
    return json.dumps(record, sort_keys=True, default=str) + "\n"


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Read every complete record of a JSONL file, tolerating a torn tail.

    The reader for crash-recovery replay: a process killed mid-append
    leaves at most one incomplete final line, which is skipped.  A malformed line
    *before* the tail raises ``ValueError`` — that is corruption, not a
    crash artifact.  A missing file reads as an empty journal.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    lines = text.split("\n")
    # A well-formed journal ends with "\n", so the final split element is
    # empty; anything else is the torn tail of an interrupted append.
    lines = lines[:-1] if lines else []
    records: list[dict] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise ValueError(
                f"{path}: corrupt record on line {lineno + 1} "
                f"(not the torn tail of a crash)"
            ) from None
        if not isinstance(obj, dict):
            raise ValueError(
                f"{path}: line {lineno + 1} is not a JSON object"
            )
        records.append(obj)
    return records


class JsonlJournal:
    """An append-only JSONL journal with flush + fsync per record.

    The file handle stays open (one ``write``/``flush``/``fsync`` per
    record, no re-open), which is what a server emitting one record per
    round needs.  Writes are best-effort: a failed append flips
    :attr:`healthy` to False and returns False, it never raises into
    the caller's hot path.

    ``fsync=False`` (or ``append(..., sync=False)`` per record) flushes
    to the OS without forcing the disk write: the record survives a
    *process* kill — the page cache outlives the process, which is all
    worker-failover replay needs — but not an OS crash.  Any later
    synced append also durably lands every earlier flushed record, since
    fsync covers the whole file.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        truncate: bool = False,
        fsync: bool = True,
    ):
        self.path = Path(path)
        self.records_written = 0
        self.healthy = True
        self.fsync = fsync
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(
                self.path, "w" if truncate else "a", encoding="utf-8"
            )
        except OSError:
            self._fh = None
            self.healthy = False

    def append(self, record: Mapping, sync: bool | None = None) -> bool:
        """Write one record durably; False (and unhealthy) on failure.

        ``sync`` overrides the journal-level :attr:`fsync` default for
        this record only.
        """
        if self._fh is None:
            return False
        try:
            self._fh.write(json_line(record))
            self._fh.flush()
            if self.fsync if sync is None else sync:
                os.fsync(self._fh.fileno())
            self.records_written += 1
            return True
        except (OSError, ValueError):
            self.healthy = False
            return False

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""JSONL encoding and crash-safe append journals.

- :func:`json_line` — the canonical one-record encoding (sorted keys,
  ``default=str``, trailing newline), so every JSONL artifact in the
  repo is diffable with every other.  The span trace writer
  (:mod:`repro.telemetry.spans`) and the serve session journal both
  encode with it;
- :class:`JsonlJournal` — the serve journal's fail-stop append writer
  (one write and fsync per record without re-opening the file).  The
  span writer does not use it: it stays buffered, since a flush per span
  would add a write per executed job.
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
    """An append-only JSONL journal with one write and fsync per record.

    The file stays open and unbuffered: each record is one ``write`` of
    its encoded line plus an ``fsync`` (no re-open), which is what a
    server emitting one record per round needs.  It fails stop: an open
    or an append the OS refuses raises ``OSError`` to the caller, and
    nothing of a failed record is left in a buffer for a later append or
    :meth:`close` to land behind the caller's back.

    ``append(..., sync=False)`` hands a record to the OS without forcing
    the disk write: the record survives a *process* kill — the page cache
    outlives the process, which is all worker-failover replay needs — but
    not an OS crash.  Any later synced append also durably lands every
    earlier record, since fsync covers the whole file.
    """

    def __init__(self, path: str | os.PathLike, truncate: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "wb" if truncate else "ab", buffering=0)

    def append(self, record: Mapping, sync: bool = True) -> None:
        """Write one record (fsynced unless ``sync`` is False); raises
        ``OSError`` if the OS does not take all of it."""
        line = json_line(record).encode("utf-8")
        written = self._fh.write(line)
        if written != len(line):
            raise OSError(
                f"{self.path}: short write ({written} of {len(line)} bytes)"
            )
        if sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

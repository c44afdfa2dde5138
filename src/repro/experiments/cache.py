"""Content-addressed on-disk cache for experiment results.

``repro all`` and the competitive-ratio dashboard recompute the same
(experiment, scale) cells over and over; this cache makes re-runs free.
Entries are addressed by a stable SHA-256 key over the cell's identity
**plus the package version**, so upgrading ``repro`` invalidates
everything automatically.

Layout (under ``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``)::

    <cache root>/<key[:2]>/<key>.pkl

Each entry is a pickle of ``{"meta": {...identity fields...}, "value": obj}``.
Writes go through a temp file + :func:`os.replace` so concurrent workers
racing on the same cell leave a complete entry, never a torn one.  Reads
treat *any* failure (truncated pickle, wrong format, unreadable file) as a
miss and delete the offending entry — a corrupted cache can cost recompute
time but can never crash a run or poison a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro import __version__

__all__ = ["CACHE_FORMAT", "default_cache_dir", "cache_key", "ResultCache"]

#: Bump when the pickled payload shape changes; part of every key.
CACHE_FORMAT = 1


def default_cache_dir() -> Path:
    """Resolve the cache root: ``REPRO_CACHE_DIR`` > XDG > ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_key(
    experiment_id: str,
    scale: str,
    *,
    kind: str = "experiment",
    version: str = __version__,
    extra: Mapping[str, Any] | None = None,
) -> str:
    """Stable content address of one result cell.

    The key is the SHA-256 of a canonical JSON document, so it is identical
    across processes, machines, and Python versions (``PYTHONHASHSEED``
    plays no part).

    ``extra`` folds additional identity fields (JSON-encodable values) into
    the key.  Anything that changes what the cell *means* must be in here —
    the competitive-ratio cells pass the opt backend and solve horizon, so
    switching backends can never serve a stale OPT from cache.
    """
    identity = {
        "format": CACHE_FORMAT,
        "kind": kind,
        "experiment": experiment_id,
        "scale": scale,
        "version": version,
    }
    if extra:
        identity["extra"] = {str(k): extra[k] for k in sorted(extra)}
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed result store addressed by :func:`cache_key`."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        """Return the cached value, or ``None`` on miss *or any* failure.

        A corrupted entry (truncated write, disk fault, stale format) is
        deleted and reported as a miss so the caller just recomputes.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            return entry["value"]
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, value: Any, meta: dict | None = None) -> None:
        """Store ``value`` atomically; best-effort (a read-only disk is not fatal)."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump({"meta": meta or {}, "value": value}, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass

    def __contains__(self, key: str) -> bool:
        """True iff :meth:`get` would return a value.

        Delegates to :meth:`get` so a corrupted on-disk entry — which
        ``get`` treats (and evicts) as a miss — can never read as a
        phantom hit here.  Mere ``path.exists()`` checks lied exactly
        there: callers saw ``key in cache`` succeed and then watched the
        lookup miss.
        """
        return self.get(key) is not None

    def clear(self) -> int:
        """Delete every entry; return how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

"""The content-addressed result cache: keys, hits, corruption, overrides."""

import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro import __version__
from repro.experiments.cache import (
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.experiments.runner import run_parallel

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestCacheKey:
    def test_stable_within_process(self):
        assert cache_key("E1", "quick") == cache_key("E1", "quick")

    def test_distinguishes_every_identity_field(self):
        base = cache_key("E1", "quick")
        assert cache_key("E2", "quick") != base
        assert cache_key("E1", "full") != base
        assert cache_key("E1", "quick", kind="opt-ratio") != base
        assert cache_key("E1", "quick", version="0.0.0") != base
        assert cache_key("E1", "quick", extra={"n": 8}) != base

    def test_stable_across_processes_and_hash_seeds(self):
        # The key must not depend on PYTHONHASHSEED or interpreter state:
        # workers and later sessions must address the same cells.
        code = "from repro.experiments.cache import cache_key; print(cache_key('E3', 'full', extra={'n': 42}))"
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == cache_key("E3", "full", extra={"n": 42})

    def test_versioned(self):
        # Upgrading the package must invalidate old entries; the current
        # version is baked into the current key.
        assert cache_key("E1", "quick") != cache_key(
            "E1", "quick", version=__version__ + ".post1"
        )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("E1", "quick")
        assert cache.get(key) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert key in cache

    def test_corrupted_entry_recovers_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("E1", "quick")
        cache.put(key, "good")
        path = cache._path(key)
        path.write_bytes(b"\x80\x04 definitely not a pickle")
        assert cache.get(key) is None  # no crash
        assert not path.exists()  # poisoned entry evicted
        cache.put(key, "recomputed")
        assert cache.get(key) == "recomputed"

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("E1", "quick")
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(["not", "the", "entry", "dict"]))
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key("E1", "quick"), 1)
        cache.put(cache_key("E2", "quick"), 2)
        assert cache.clear() == 2
        assert cache.get(cache_key("E1", "quick")) is None


def _hammer_same_key(root: str, key: str, writes: int, tag: int) -> None:
    """Writer process: repeatedly overwrite one cell with complete payloads."""
    cache = ResultCache(root)
    for i in range(writes):
        cache.put(key, {"tag": tag, "i": i, "payload": "x" * 4096})


def _write_key_range(root: str, start: int, stop: int) -> None:
    cache = ResultCache(root)
    for i in range(start, stop):
        cache.put(cache_key(f"K{i}", "quick"), {"cell": i})


class TestCacheConcurrency:
    def test_racing_writers_never_expose_a_torn_entry(self, tmp_path):
        # Several processes hammer the *same* key while the parent reads in
        # a tight loop.  The atomic temp-file + os.replace protocol must
        # mean every read sees either a miss or a complete payload — never
        # a partial pickle, never an exception.
        key = cache_key("RACE", "quick")
        cache = ResultCache(tmp_path)
        ctx = multiprocessing.get_context()
        writers = [
            ctx.Process(target=_hammer_same_key,
                        args=(str(tmp_path), key, 40, tag))
            for tag in range(4)
        ]
        for p in writers:
            p.start()
        try:
            observed = 0
            while any(p.is_alive() for p in writers):
                value = cache.get(key)
                if value is not None:
                    assert set(value) == {"tag", "i", "payload"}
                    assert len(value["payload"]) == 4096
                    observed += 1
        finally:
            for p in writers:
                p.join(timeout=30)
        assert observed > 0  # the race was actually exercised
        final = cache.get(key)
        assert final is not None and len(final["payload"]) == 4096

    def test_writers_on_disjoint_keys_all_land(self, tmp_path):
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_write_key_range,
                        args=(str(tmp_path), i * 10, (i + 1) * 10))
            for i in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
        cache = ResultCache(tmp_path)
        for i in range(30):
            assert cache.get(cache_key(f"K{i}", "quick")) == {"cell": i}


class TestTornWrites:
    def test_truncated_entry_is_a_miss_and_evicted(self, tmp_path):
        # A torn write (power loss, SIGKILL mid-copy) leaves a prefix of a
        # valid pickle; the reader must treat it as a miss and evict it.
        cache = ResultCache(tmp_path)
        key = cache_key("E1", "quick")
        cache.put(key, {"big": list(range(1000))})
        path = cache._path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert not path.exists()

    def test_empty_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("E1", "quick")
        cache.put(key, "value")
        cache._path(key).write_bytes(b"")
        assert cache.get(key) is None

    def test_contains_validates_like_get(self, tmp_path):
        # The old implementation answered `in` with a bare exists() check,
        # so a corrupted file read as a phantom hit.  Pinned: __contains__
        # must agree with get() on every damaged entry.
        cache = ResultCache(tmp_path)
        key = cache_key("E1", "quick")
        cache.put(key, "value")
        assert key in cache
        path = cache._path(key)
        path.write_bytes(b"not a pickle at all")
        assert path.exists()
        assert key not in cache  # the lie the old exists() check told
        assert cache.get(key) is None

    def test_contains_false_on_truncated_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("E2", "quick")
        cache.put(key, {"big": list(range(1000))})
        path = cache._path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        assert key not in cache

    def test_contains_miss_on_absent_key(self, tmp_path):
        assert cache_key("NEVER", "quick") not in ResultCache(tmp_path)


class TestCacheDirResolution:
    def test_repro_cache_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir().name == "repro"
        assert ".cache" in str(default_cache_dir())

    def test_runner_honours_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
        report = run_parallel(["E1"], jobs=1)
        assert not report.records[0].cache_hit
        assert list((tmp_path / "via-env").glob("*/*.pkl"))


class TestRunnerCaching:
    def test_cold_then_warm(self, tmp_path):
        ids = ["E1", "E2", "E14"]
        cold = run_parallel(ids, jobs=2, cache_dir=tmp_path)
        warm = run_parallel(ids, jobs=2, cache_dir=tmp_path)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(ids)  # 100% on the rerun
        for eid in ids:
            assert cold.results[eid] == warm.results[eid]

    def test_cache_shared_across_worker_counts(self, tmp_path):
        run_parallel(["E1", "E2"], jobs=1, cache_dir=tmp_path)
        warm = run_parallel(["E1", "E2"], jobs=4, cache_dir=tmp_path)
        assert warm.cache_hits == 2

    def test_no_cache_bypasses_store(self, tmp_path):
        run_parallel(["E1"], jobs=1, cache_dir=tmp_path, use_cache=False)
        assert not list(tmp_path.glob("*/*.pkl"))
        # ... and bypasses lookup even when an entry exists.
        run_parallel(["E1"], jobs=1, cache_dir=tmp_path)
        again = run_parallel(["E1"], jobs=1, cache_dir=tmp_path, use_cache=False)
        assert again.cache_hits == 0

    def test_corrupted_entry_recomputes_not_crashes(self, tmp_path):
        cold = run_parallel(["E1"], jobs=1, cache_dir=tmp_path)
        [entry] = list(tmp_path.glob("*/*.pkl"))
        entry.write_bytes(b"truncated garbage")
        recovered = run_parallel(["E1"], jobs=1, cache_dir=tmp_path)
        assert recovered.cache_hits == 0
        assert recovered.results["E1"] == cold.results["E1"]
        # The recompute repaired the store: next run hits again.
        assert run_parallel(["E1"], jobs=1, cache_dir=tmp_path).cache_hits == 1

    def test_cached_result_round_trips_render(self, tmp_path):
        cold = run_parallel(["E4"], jobs=1, cache_dir=tmp_path)
        warm = run_parallel(["E4"], jobs=1, cache_dir=tmp_path)
        assert warm.records[0].cache_hit
        assert cold.results["E4"].render() == warm.results["E4"].render()
        assert cold.results["E4"].fingerprint() == warm.results["E4"].fingerprint()


class TestStats:
    def test_stats_table_and_payload(self, tmp_path):
        report = run_parallel(["E1", "E2"], jobs=2, cache_dir=tmp_path)
        text = report.stats_table().render()
        assert "cache hits 0/2" in text
        assert "E1" in text and "E2" in text
        payload = report.stats_payload()
        assert payload["tasks"] == 2
        assert payload["cache_hits"] == 0
        assert [r["experiment_id"] for r in payload["records"]] == ["E1", "E2"]

    def test_rounds_surfaced_when_table_has_them(self, tmp_path):
        report = run_parallel(["E1"], jobs=1, cache_dir=tmp_path)
        # E1's table has a "rounds" column; the record sums it.
        assert report.records[0].rounds and report.records[0].rounds > 0
        assert report.records[0].checks_total == 3

"""Unit tests for the shared fsync-append JSONL utility."""

import errno
import json
import os

import pytest

from repro.utils.jsonl import JsonlJournal, json_line, read_jsonl


class TestJsonLine:
    def test_newline_terminated(self):
        assert json_line({"a": 1}).endswith("\n")

    def test_keys_sorted(self):
        line = json_line({"b": 1, "a": 2})
        assert line.index('"a"') < line.index('"b"')

    def test_non_json_values_stringified(self):
        line = json_line({"p": object()})
        assert json.loads(line)["p"].startswith("<object object")


class TestJsonlJournal:
    def test_records_survive_close(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlJournal(path) as journal:
            journal.append({"kind": "a"})
            journal.append({"kind": "b"})
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["kind"] for r in rows] == ["a", "b"]

    def test_truncate_discards_previous_contents(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"stale": true}\n')
        with JsonlJournal(path, truncate=True) as journal:
            journal.append({"fresh": True})
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows == [{"fresh": True}]

    def test_append_without_truncate_keeps_previous(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlJournal(path) as journal:
            journal.append({"run": 1})
        with JsonlJournal(path) as journal:
            journal.append({"run": 2})
        assert len(path.read_text().splitlines()) == 2

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "j.jsonl"
        with JsonlJournal(path) as journal:
            journal.append({"x": 1})
        assert path.exists()

    def test_unwritable_journal_reports_unhealthy(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        # The parent "directory" is a regular file, so the open must fail,
        # and fail stop: it raises instead of handing back a dead journal.
        with pytest.raises(OSError):
            JsonlJournal(blocker / "j.jsonl")

    def test_failed_append_raises(self, tmp_path, monkeypatch):
        def full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with JsonlJournal(tmp_path / "j.jsonl") as journal:
            monkeypatch.setattr(os, "fsync", full)
            with pytest.raises(OSError, match="No space"):
                journal.append({"x": 1})

    def test_short_write_raises(self, tmp_path):
        class Short:
            def write(self, data):
                return len(data) - 1

            def close(self):
                pass

        journal = JsonlJournal(tmp_path / "j.jsonl")
        journal.close()
        journal._fh = Short()
        with pytest.raises(OSError, match="short write"):
            journal.append({"x": 1})

    def test_sync_override_still_flushes(self, tmp_path):
        # sync=False skips the fsync but the record must still reach the
        # OS: another process reading the file sees it at once,
        # which is exactly what worker-failover replay relies on.
        path = tmp_path / "j.jsonl"
        journal = JsonlJournal(path, truncate=True)
        try:
            journal.append({"x": 1}, sync=False)
            assert read_jsonl(path) == [{"x": 1}]
            journal.append({"x": 2}, sync=True)
            assert read_jsonl(path) == [{"x": 1}, {"x": 2}]
        finally:
            journal.close()


class TestReadJsonl:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == []

    def test_reads_records_in_order(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')  # blank lines skipped
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\n{"b": ')  # no trailing newline
        assert read_jsonl(path) == [{"a": 1}]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\ngarbage\n{"b": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('[1, 2]\n')
        with pytest.raises(ValueError, match="not a JSON object"):
            read_jsonl(path)

"""The disk tier's file helpers stay best-effort: every OS or decoding
fault becomes a False, a None or a reason, never an exception."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.pipeline.diskio import (
    atomic_write_json,
    load_json_entry,
    pid_alive,
    sweep_stale_tmp,
)


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestPidAlive:
    def test_own_and_exited_processes(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(_dead_pid())

    def test_a_pid_too_large_for_the_os_is_not_alive(self):
        assert not pid_alive(2**70)

    def test_a_process_of_another_user_is_alive(self, monkeypatch):
        def denied(pid, signal):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "kill", denied)
        assert pid_alive(12345)

    def test_a_process_that_answers_is_alive(self, monkeypatch):
        monkeypatch.setattr(os, "kill", lambda pid, signal: None)
        assert pid_alive(12345)


class TestSweepStaleTmp:
    def test_missing_directory_is_nothing_to_sweep(self, tmp_path):
        sweep_stale_tmp(str(tmp_path / "not-created-yet"))

    def test_only_orphans_of_exited_writers_go(self, tmp_path):
        orphan = tmp_path / f"entry.json.tmp.{_dead_pid()}.1"
        live = tmp_path / f"entry.json.tmp.{os.getpid()}.1"
        entry = tmp_path / "entry.json"
        for path in (orphan, live, entry):
            path.write_text("{}")
        sweep_stale_tmp(str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == sorted([live.name, entry.name])


class TestAtomicWriteJson:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "sub" / "entry.json")
        assert atomic_write_json(path, {"format": 1})
        assert load_json_entry(path, 1) == ({"format": 1}, None)

    def test_unserializable_payload_is_declined(self, tmp_path):
        assert not atomic_write_json(str(tmp_path / "entry.json"), {"x": object()})

    def test_unwritable_location_is_declined(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert not atomic_write_json(str(blocker / "entry.json"), {"format": 1})


class TestLoadJsonEntry:
    def test_missing_file_is_a_plain_miss(self, tmp_path):
        assert load_json_entry(str(tmp_path / "none.json"), 1) == (None, None)

    def test_unreadable_entry(self, tmp_path):
        entry, reason = load_json_entry(str(tmp_path), 1)  # a directory
        assert entry is None and reason.startswith("unreadable (")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("{not json")
        entry, reason = load_json_entry(str(path), 1)
        assert entry is None and reason.startswith("corrupt JSON (")

    def test_an_entry_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps([1, 2]))
        assert load_json_entry(str(path), 1) == (
            None,
            "malformed entry (expected object, got list)",
        )

    def test_other_schema_version(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({"format": 2}))
        assert load_json_entry(str(path), 1) == (
            None,
            "schema version mismatch (found 2, expected 1)",
        )

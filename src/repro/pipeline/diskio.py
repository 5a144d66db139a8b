"""Shared disk tier for the on-disk caches: atomic JSON entry files.

Both the summary cache (:mod:`repro.pipeline.cache`) and the planner's
observation store (:mod:`repro.cost.observe`) persist one JSON file per
entry under a cache directory.  The write protocol is the same for
both — write to ``{path}.tmp.{pid}.{thread}`` then :func:`os.replace`, so
readers only ever see complete files and concurrent writers, threads of
one process included, race benignly (last replace wins) — as is the
recovery story: a crash between the tmp write and the replace leaks the
tmp file, and each cache open sweeps orphans whose writer pid is gone.

Loading distinguishes three outcomes the callers treat differently:

* the file does not exist → a plain miss, nothing to report;
* the file exists but cannot be parsed (truncated write, corruption) or
  carries a different schema version → a miss **with a reason string**,
  so the caller can surface the fallback instead of hiding it;
* a well-formed entry of the expected format → the payload.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Optional

__all__ = [
    "atomic_write_json",
    "load_json_entry",
    "pid_alive",
    "safe_filename",
    "sweep_stale_tmp",
]


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a running process we must not race with."""
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except (OverflowError, OSError):
        return False
    return True


def sweep_stale_tmp(cache_dir: str) -> None:
    """Remove ``*.tmp.{pid}.{thread}`` orphans whose writer process is gone."""
    try:
        names = os.listdir(cache_dir)
    except OSError:
        return  # directory not created yet — nothing to sweep
    for name in names:
        if ".tmp." not in name:
            continue
        pid_text = name.rsplit(".tmp.", 1)[1].partition(".")[0]
        if pid_text.isdigit() and pid_alive(int(pid_text)):
            continue  # a live writer may still be mid-write
        try:
            os.remove(os.path.join(cache_dir, name))
        except OSError:
            pass  # the disk tier stays best-effort


def safe_filename(key: str) -> str:
    """A cache key flattened into a portable file name."""
    return key.replace(":", "_").replace("=", "-").replace(",", "+")


def atomic_write_json(path: str, payload: Any) -> bool:
    """Write ``payload`` as JSON via tmp-file + rename; False on failure."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except (OSError, TypeError, ValueError):
        return False  # disk tier is best-effort
    return True


def load_json_entry(
    path: str, expected_format: int
) -> tuple[Optional[dict], Optional[str]]:
    """Load one entry file: ``(entry, error)``.

    ``(None, None)`` — the file does not exist (a plain miss).
    ``(None, reason)`` — the file exists but is unreadable, not valid
    JSON, not a dict, or carries a ``format`` other than
    ``expected_format``; ``reason`` says which.
    ``(entry, None)`` — a well-formed entry of the expected format.
    """
    if not os.path.exists(path):
        return None, None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
    except OSError as exc:
        return None, f"unreadable ({exc.__class__.__name__})"
    except json.JSONDecodeError as exc:
        return None, f"corrupt JSON ({exc.msg} at char {exc.pos})"
    if not isinstance(entry, dict):
        return None, f"malformed entry (expected object, got {type(entry).__name__})"
    found = entry.get("format")
    if found != expected_format:
        return None, (
            f"schema version mismatch (found {found!r}, expected {expected_format})"
        )
    return entry, None

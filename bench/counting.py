"""Exact call counts: per-thread ``cProfile`` and the one-CPU pin.

``op_calls_k`` is the metric that still resolves a small change when
the host is in a slow phase: the number of Python and C function calls
made while one warmed op runs.  It is taken in a child pinned to one
CPU, so the planner prices the pool out and the compile scheduler runs
inline — the count is of the sequential plan and omits whatever forked
workers would do and all waiting.  It is a count, never a speed-up.

Calls are charged to the ``src/repro`` package that defines the callee;
a C function is charged to its Python caller's package.  The per-package
rows sum to the total.  This module never imports ``repro``.
"""

from __future__ import annotations

import cProfile
import os
import threading
from collections import Counter
from typing import Any

#: Per-package rows of the ledger (``calls.<name>_k``); anything else —
#: the stdlib, numpy, the front-door modules, the harness — is ``other``.
PACKAGES = (
    "lang",
    "ir",
    "synthesis",
    "verification",
    "codegen",
    "pipeline",
    "diagnostics",
    "planner",
    "cost",
    "graph",
    "engine",
    "session",
    "serve",
)
_SIZEOF_NAMES = frozenset({"sizeof", "_sizeof", "sizeof_pair", "sizeof_kind"})


def pin_to_one_cpu() -> None:
    """Restrict this process to the highest-numbered CPU it may use."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity masks here: the count is of whatever plan runs


def package_of(filename: str) -> str:
    """The ledger row a code object's file belongs to."""
    if filename.startswith("<kernel:"):
        return "codegen"  # source rendered by codegen.kernels
    _, sep, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    if not sep:
        return "other"
    head = tail.split("/", 1)[0]
    if head in PACKAGES:
        return head
    return "session" if head == "session.py" else "other"


class CallCounter:
    """Counts calls on every thread between :meth:`begin` and :meth:`end`.

    Create it before the threads of interest start: a thread gets its
    profiler when it is born, and :meth:`begin` zeroes the profilers of
    the threads already running (idle, in a one-client closed loop).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: list[cProfile.Profile] = []
        self._main = cProfile.Profile()
        threading.setprofile(self._attach)

    def _attach(self, frame: Any, event: str, arg: Any) -> None:
        # First profile event of a new thread: hand the thread over to a
        # C-level profiler of its own (enable() replaces this hook).
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        profile.enable()

    def begin(self) -> None:
        with self._lock:
            for profile in self._profiles:
                profile.clear()
        self._main.enable()

    def end(self) -> None:
        self._main.disable()
        threading.setprofile(None)

    def totals(self) -> tuple[int, dict[str, int], int]:
        """``(all calls, calls by package, sizeof-family calls)``."""
        by_package: Counter[str] = Counter()
        total = c_total = c_charged = sizeof = 0
        with self._lock:
            profiles = [self._main, *self._profiles]
        for profile in profiles:
            for entry in profile.getstats():
                total += entry.callcount
                code = entry.code
                if isinstance(code, str):  # a C function
                    c_total += entry.callcount
                    continue
                package = package_of(code.co_filename)
                by_package[package] += entry.callcount
                if code.co_name in _SIZEOF_NAMES and code.co_filename.endswith(
                    "sizes.py"
                ):
                    sizeof += entry.callcount
                for sub in entry.calls or ():
                    if isinstance(sub.code, str):
                        by_package[package] += sub.callcount
                        c_charged += sub.callcount
        # C functions called from C (or from frames entered before
        # begin()) have no Python caller on record.
        by_package["other"] += c_total - c_charged
        return total, dict(by_package), sizeof

"""CI check: a second compile of the registered suite runs no search.

Compiles all registered benchmarks twice against one temporary
``cache_dir``, each pass in fresh :class:`repro.Session`s (what a daemon
restart sees), prints both wall times, and exits non-zero unless every
fragment of the second pass was answered by the summary cache — with
verified summaries or with a remembered exhausted verdict.  There is no
exemption: a fragment searched again fails the check, and the line it
gets says whether its fingerprint was uncacheable and why.

    PYTHONPATH=src python benchmarks/warm_suite_check.py
"""

from __future__ import annotations

import sys
import tempfile
import time

import repro
from repro.lang.analysis.fragments import fingerprint_fragment
from repro.workloads.registry import all_benchmarks


def compile_suite(cache_dir: str) -> tuple[float, list[tuple[str, str, str | None]]]:
    """One pass: ``(wall seconds, [(benchmark, fragment, why uncacheable)])``
    for every fragment whose search ran (``None``: it was cacheable)."""
    searched = []
    started = time.perf_counter()
    for benchmark in all_benchmarks():
        with repro.Session(cache_dir=cache_dir, max_workers=0) as session:
            compilation = session.compile(benchmark.source).compilation
        for fragment in compilation.fragments:
            if fragment.search is None or not fragment.search.searched:
                continue
            reason = fingerprint_fragment(fragment.analysis).reason
            searched.append((benchmark.name, fragment.fragment.id, reason))
    return time.perf_counter() - started, searched


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="warm-suite-") as cache_dir:
        cold_seconds, cold = compile_suite(cache_dir)
        warm_seconds, warm = compile_suite(cache_dir)
    print(f"cold pass: {cold_seconds:6.2f} s, {len(cold)} searches")
    print(f"warm pass: {warm_seconds:6.2f} s, {len(warm)} searches")
    for name, fragment, reason in warm:
        why = f"uncacheable: {reason}" if reason else "cacheable"
        print(f"  searched again: {name} {fragment} ({why})")
    if warm:
        print(f"FAIL: {len(warm)} fragment(s) searched on the warm pass")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

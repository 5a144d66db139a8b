"""One compiled suite per test session, shared by ``tests/`` and ``benchmarks/``.

Compiling all 70 registered benchmarks costs ~25 s; every module that
needs a compiled benchmark asks here so each is compiled once however
many sweeps run over it.  ``benchmarks/conftest.py`` imports this same
module (it puts ``tests/`` on ``sys.path``), so the two directories
share one cache.  The results are shared objects: a test that
reconfigures a program (planner, observation store) must put it back.
"""

from __future__ import annotations

from functools import lru_cache

from repro.workloads import get_benchmark
from repro.workloads.runner import compile_benchmark


@lru_cache(maxsize=None)
def compiled(name: str):
    """Session-cached Casper compilation of a registered benchmark."""
    return compile_benchmark(get_benchmark(name))

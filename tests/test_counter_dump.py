"""Every number a run reports is the number the parent commit reported.

``benchmarks/counter_dump.py`` runs every translated fragment of the 70
benchmarks on five backends and every whole program through
``run_graph`` three ways, and digests each run's outputs, per-stage
counters, simulated seconds and spill accounting; one ``@monitor`` row
per fragment holds what the runtime monitor sampled and chose (every
implementation's estimates, the costs and the choice that
``RuntimeMonitor.choose`` returned) and the stage plans the planner
derived.
``tests/data/counters_golden.json`` holds those digests as generated on
the commit *before* the keyed row path moved to columns (PR 21's
parent, ``87e2839``; the 595 run rows) and *before* the monitor sampled
through compiled kernels (PR 22's parent, ``df7aaf8``; the 77 monitor
rows, generated with the 595 reproduced unchanged).  Three rows were
regenerated on purpose when the simulated frameworks stopped re-running
programs and were priced from one real run instead
(``engine.core.price``): the ``@spark`` rows of the three join
benchmarks, whose outputs are now the real engine's and whose post-join
shuffle combines per chunk, not per Spark repartition; the other 669
digests were reproduced unchanged.  An engine, accounting or sampling
change that moves any of them fails here with the fragment × backend
named.  Nothing in an entry depends on ``PYTHONHASHSEED`` (sets are
rendered sorted).
"""

from __future__ import annotations

import json

import pytest

from benchmarks.counter_dump import GOLDEN_PATH, digest, entries
from repro.workloads import all_benchmarks
from suite_cache import compiled

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
NAMES = [b.name for b in all_benchmarks()]


def _benchmark_of(entry: str) -> str:
    return entry.split("@")[0].split("#")[0]


def test_golden_covers_the_registered_suite():
    assert sorted({_benchmark_of(entry) for entry in GOLDEN}) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_counters_match_the_parent_commit(name):
    got = {entry: digest(text) for entry, text in entries(name, compiled)}
    want = {e: d for e, d in GOLDEN.items() if _benchmark_of(e) == name}
    moved = sorted(e for e in got.keys() | want.keys() if got.get(e) != want.get(e))
    assert not moved, f"outputs or counters moved (fragment#index@backend): {moved}"

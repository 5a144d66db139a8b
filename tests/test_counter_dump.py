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
digests were reproduced unchanged.  54 more were regenerated when a
fragment with a proved summary stopped keeping its bounded-only twins:
30 ``@monitor`` rows no longer sample the twins, and the run rows of
``fiji_nlmeans_stats#0``, ``tpch_q1#1`` and ``tpch_q17#1`` (five
backends and three graph runs each) dispatch the proved summary instead
of a twin — for the two TPC-H counts that is ``emit(k, 1.0)``, whose
float counts are the source's ``double``s, where the twin emitted ints;
the other 618 were reproduced unchanged.  54 more were regenerated when a
budgeted counted map task began handing its spill writer one counted
partial per budget window instead of one per chunk, and a ``double``
sum of ints began binding through its ``0.0`` start: the
``@sequential+4k`` rows of the 16 counted fragments and the
``@graph.spilled`` rows of their 14 benchmarks, whose spill stats and
seconds alone moved (fewer pairs spilled), and the 24 run rows of
``biglambda_select_sum#1``, ``fiji_nlmeans_stats#0`` and ``fiji_trails#0``
(five backends and three graph runs each), whose ``double`` outputs are
now the source's floats where the fold left equal ints; the other 618
were reproduced unchanged.  24 more were regenerated when only a folded
map segment kept the vector path: the ``@graph.*`` rows of the eight
benchmarks whose element maps, filters and projections vectorized chunk
by chunk, where only each unit's ``columnar`` account moved (to None);
the other 648 were reproduced unchanged.  An engine, accounting or sampling
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

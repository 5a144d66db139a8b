"""Figure 8: StringMatch dynamic tuning + the 3-way-join ordering demo.

Paper shapes: three candidate StringMatch encodings with costs 300N (a),
84N (b), 150(p1+p2)N (c); (a) is pruned statically; the monitor picks (c)
for 0%/50% match probability and (b) for 95% (Fig. 8(b-c)); and for the
part/supplier/partsupp query, the monitor executes the cheaper join
ordering in both parameter configurations (section 7.4).
"""

from __future__ import annotations

import pytest

from repro.baselines import run_three_way_join
from repro.cost import CostModel, Implementation, RuntimeMonitor
from repro.engine.config import EngineConfig
from repro.engine.spark import SimSparkContext
from repro.workloads import datagen

from conftest import print_table

# The paper's three candidate encodings (Fig. 8(d)).
from repro.baselines.fig8_solutions import (
    string_match_solution_a,
    string_match_solution_b,
    string_match_solution_c,
)

_N = 20_000
_SCALE = 400_000


def _run_b(words, config):
    context = SimSparkContext(config)
    reduced = (
        context.parallelize(words)
        .map_to_pair(lambda w: (0, (w == "key1", w == "key2")), complexity=2)
        .reduce_by_key(lambda a, b: (a[0] or b[0], a[1] or b[1]))
    )
    result = reduced.collect_as_map().get(0, (False, False))
    return result, context.metrics.simulated_seconds


def _run_c(words, config):
    context = SimSparkContext(config)
    reduced = (
        context.parallelize(words)
        .flat_map_to_pair(
            lambda w: [(w, True)] if w in ("key1", "key2") else [], complexity=2
        )
        .reduce_by_key(lambda a, b: a or b)
    )
    found = reduced.collect_as_map()
    return (found.get("key1", False), found.get("key2", False)), context.metrics.simulated_seconds


@pytest.fixture(scope="module")
def fig8():
    model = CostModel()
    a, b, c = (
        string_match_solution_a(),
        string_match_solution_b(),
        string_match_solution_c(),
    )
    costed = [(s, model.summary_cost(s)) for s in (a, b, c)]
    survivors = model.prune_dominated(costed)

    monitor = RuntimeMonitor(
        implementations=[
            Implementation("b", b, model.summary_cost(b)),
            Implementation("c", c, model.summary_cost(c)),
        ]
    )
    config = EngineConfig(scale=_SCALE)
    env = {"key1": "key1", "key2": "key2"}
    skew_rows = []
    for probability in (0.0, 0.5, 0.95):
        words = datagen.keyword_text(_N, ["key1", "key2"], probability, seed=41)
        sample = [{"word": w} for w in words[:5000]]
        chosen, costs = monitor.choose(sample, env)
        result_b, time_b = _run_b(words, config)
        result_c, time_c = _run_c(words, config)
        assert result_b == result_c
        skew_rows.append(
            {
                "p": probability,
                "chosen": monitor.implementations[chosen].name,
                "cost_b": costs["b"],
                "cost_c": costs["c"],
                "time_b": time_b,
                "time_c": time_c,
            }
        )
    return {"survivors": [s for s, _ in survivors], "skew": skew_rows}


def test_fig8_report(fig8):
    print_table(
        "Figure 8 — StringMatch dynamic tuning (paper: (c) optimal at "
        "0%/50% match, (b) at 95%)",
        ["Match p", "Monitor picked", "cost(b)/N", "cost(c)/N", "time b (s)", "time c (s)"],
        [
            [
                f"{r['p']:.0%}",
                r["chosen"],
                f"{r['cost_b']:.0f}",
                f"{r['cost_c']:.1f}",
                f"{r['time_b']:.0f}",
                f"{r['time_c']:.0f}",
            ]
            for r in fig8["skew"]
        ],
    )


def test_solution_a_statically_pruned(fig8):
    names = {id(s) for s in fig8["survivors"]}
    assert len(fig8["survivors"]) == 2  # (a) dominated, (b)/(c) survive


def test_monitor_picks_c_for_low_skew(fig8):
    by_p = {r["p"]: r for r in fig8["skew"]}
    assert by_p[0.0]["chosen"] == "c"
    assert by_p[0.5]["chosen"] == "c"


def test_monitor_picks_b_for_high_skew(fig8):
    by_p = {r["p"]: r for r in fig8["skew"]}
    assert by_p[0.95]["chosen"] == "b"


def test_monitor_choice_tracks_actual_runtime(fig8):
    """The chosen implementation must be the actually-faster one."""
    for row in fig8["skew"]:
        faster = "b" if row["time_b"] < row["time_c"] else "c"
        if abs(row["time_b"] - row["time_c"]) / max(row["time_b"], row["time_c"]) > 0.1:
            assert row["chosen"] == faster, row


class TestJoinOrdering:
    """Section 7.4's 3-way-join configurations."""

    def test_both_configurations_pick_faster_order(self):
        config = EngineConfig(scale=3000)
        # Config 1: many parts, few suppliers → join suppliers first.
        part, supplier, partsupp = datagen.part_supplier_tables(800, 10, 1200, seed=42)
        auto = run_three_way_join(part, supplier, partsupp, config=config)
        assert auto.ordering == "supplier_first"
        # Config 2: few parts, many suppliers → join parts first.
        part, supplier, partsupp = datagen.part_supplier_tables(10, 800, 1200, seed=43)
        auto = run_three_way_join(part, supplier, partsupp, config=config)
        assert auto.ordering == "part_first"

    def test_orderings_equivalent_results(self):
        part, supplier, partsupp = datagen.part_supplier_tables(60, 25, 400, seed=44)
        one = run_three_way_join(part, supplier, partsupp, ordering="supplier_first")
        two = run_three_way_join(part, supplier, partsupp, ordering="part_first")
        assert one.result == two.result


def test_benchmark_dynamic_selection(benchmark):
    words = datagen.keyword_text(_N, ["key1", "key2"], 0.5, seed=41)
    benchmark.pedantic(
        lambda: _run_c(words, EngineConfig(scale=_SCALE)),
        rounds=1,
        iterations=1,
    )

"""Mini-SparkSQL baseline: a plan-based relational executor.

Figure 7(b) compares Casper's TPC-H translations against SparkSQL.  The
comparison is about *plan shape*: the paper attributes SparkSQL's losses
on Q1/Q6 to extra data shuffling in its query plans, its Q15 loss to
scanning lineitem twice, and its Q17 win to better operator scheduling.
This module executes hand-built relational plans with exactly those
shapes over the simulated engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..engine.config import EngineConfig
from ..engine.metrics import JobMetrics
from ..engine.spark import SimSparkContext
from ..lang.values import Instance, parse_date

#: Generic-row processing overhead of the SQL engine relative to the
#: specialized closures Casper generates (boxing, codegen-miss paths on
#: UDF-heavy plans).  A modeling constant — see DESIGN.md: Fig. 7(b) is a
#: plan-shape comparison.
SQL_ROW_FACTOR = 2.4


def _sql_config(config: Optional[EngineConfig]) -> EngineConfig:
    base = config or EngineConfig()
    profile = base.framework
    slowed = replace(
        profile, record_cpu_factor=profile.record_cpu_factor * SQL_ROW_FACTOR
    )
    return replace(base, framework=slowed)


@dataclass
class SqlResult:
    result: Any
    metrics: JobMetrics


def _price_disc(item: Instance) -> float:
    return item.get("l_extendedprice") * (1.0 - item.get("l_discount"))


def sparksql_q1(
    lineitem: list[Instance], config: Optional[EngineConfig] = None
) -> SqlResult:
    """Q1 plan: scan → project → partial agg → *exchange* → final agg.

    The exchange ships wide partial-aggregate rows (per-group tuples of
    every aggregate) — the extra shuffle the paper blames for SparkSQL's
    2× loss on Q1.
    """
    context = SimSparkContext(_sql_config(config))
    rdd = context.parallelize(lineitem)
    projected = rdd.map_to_pair(
        lambda li: (
            (li.get("l_returnflag"), li.get("l_linestatus")),
            (
                li.get("l_quantity"),
                li.get("l_extendedprice"),
                _price_disc(li),
                _price_disc(li) * (1.0 + li.get("l_tax")),
                1.0,
            ),
        ),
        complexity=8,
    )
    # SparkSQL's exchange: group without map-side combining, then fold.
    grouped = projected.group_by_key()
    aggregated = grouped.map_values(
        lambda rows: tuple(sum(col) for col in zip(*rows)), complexity=6
    )
    return SqlResult(result=aggregated.collect_as_map(), metrics=context.metrics)


def sparksql_q6(
    lineitem: list[Instance], config: Optional[EngineConfig] = None
) -> SqlResult:
    """Q6 plan: scan → filter → project → exchange → global sum."""
    context = SimSparkContext(_sql_config(config))
    dt1 = parse_date("1993-01-01").get("epoch")
    dt2 = parse_date("1994-01-01").get("epoch")
    rdd = context.parallelize(lineitem)
    filtered = rdd.filter(
        lambda li: dt1 < li.get("l_shipdate").get("epoch") < dt2
        and 0.05 <= li.get("l_discount") <= 0.07
        and li.get("l_quantity") < 24.0,
        complexity=6,
    )
    projected = filtered.map_to_pair(
        lambda li: (0, li.get("l_extendedprice") * li.get("l_discount")), complexity=2
    )
    # The exchange before the single-group aggregate (no combiner).
    summed = projected.group_by_key().map_values(lambda vs: sum(vs), complexity=1)
    result = summed.collect_as_map().get(0, 0.0)
    return SqlResult(result=result, metrics=context.metrics)


def sparksql_q15(
    lineitem: list[Instance], suppliers: int, config: Optional[EngineConfig] = None
) -> SqlResult:
    """Q15 plan: the view is evaluated twice (max subquery + outer query).

    SparkSQL's plan scans lineitem twice — once to compute per-supplier
    revenue for the max, once to join it back; Casper's single scan wins
    ~2.8× (section 7.2).
    """
    base_config = _sql_config(config)
    metrics = JobMetrics()

    def revenue_by_supplier() -> tuple[dict[int, float], JobMetrics]:
        context = SimSparkContext(base_config)
        rdd = context.parallelize(lineitem)
        pairs = rdd.map_to_pair(
            lambda li: (li.get("l_suppkey"), _price_disc(li)), complexity=3
        )
        reduced = pairs.reduce_by_key(lambda a, b: a + b)
        return reduced.collect_as_map(), context.metrics

    revenue_one, metrics_one = revenue_by_supplier()
    metrics.merge(metrics_one)
    best = max(revenue_one.values(), default=0.0)

    revenue_two, metrics_two = revenue_by_supplier()  # the second scan
    metrics.merge(metrics_two)
    winners = {k: v for k, v in revenue_two.items() if v >= best}
    return SqlResult(result=(best, winners), metrics=metrics)


def sparksql_q17(
    lineitem: list[Instance], parts: int, config: Optional[EngineConfig] = None
) -> SqlResult:
    """Q17 plan: broadcast the per-part average, one re-scan, filter, sum.

    SparkSQL schedules this better than Casper's three separate jobs, so
    it wins Q17 by ~1.7× (section 7.2).
    """
    context = SimSparkContext(_sql_config(config))
    rdd = context.parallelize(lineitem)
    stats = rdd.map_to_pair(
        lambda li: (li.get("l_partkey"), (li.get("l_quantity"), 1.0)), complexity=3
    )
    reduced = stats.reduce_by_key(lambda a, b: (a[0] + b[0], a[1] + b[1]))
    averages = {k: s / c for k, (s, c) in reduced.collect_as_map().items()}
    broadcast = context.broadcast(averages)

    filtered = rdd.filter(
        lambda li: li.get("l_quantity")
        < 0.2 * broadcast.value.get(li.get("l_partkey"), 0.0),
        complexity=4,
    )
    prices = filtered.map_to_pair(
        lambda li: (0, li.get("l_extendedprice")), complexity=1
    )
    total = prices.reduce_by_key(lambda a, b: a + b).collect_as_map().get(0, 0.0)
    return SqlResult(result=total / 7.0, metrics=context.metrics)

"""DAG-aware execution planning over whole-program job graphs.

:class:`ExecutionPlanner` decides how one fragment's job runs; this
module lifts those decisions to a whole job graph.  The
:class:`DagPlanner` turns the fusion optimizer's unit list into
*waves* — sets of units whose dependencies are all satisfied.
Independent branches of a program (TPC-H Q1's parallel aggregates, the
logistic-regression gradient/loss/accuracy scans) land in one wave,
which the simulated cluster runs side by side (the executor itself runs
a wave's units one after another); chains serialize across waves.

The :class:`GraphPlanReport` is the whole-program analogue of
:class:`~repro.planner.plan.PlanReport`: per-unit plan reports plus the
graph-level evidence (waves, the optimizer's ``REP407``–``REP410``
diagnostics, cache reuse), so a planned whole-program job leaves the
same kind of audit trail a planned ``fragment_index`` job does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..diagnostics import Diagnostic
from .plan import PlanReport

if TYPE_CHECKING:
    from ..graph.fuse import GraphSchedule
    from ..graph.jobgraph import JobGraph


@dataclass
class GraphExecutionPlan:
    """Wave schedule for one job graph: who runs when."""

    #: Unit indexes (into the schedule's unit list) per wave, in order.
    waves: list[tuple[int, ...]] = field(default_factory=list)


@dataclass
class GraphPlanReport:
    """Evidence and outcome of one whole-program graph execution."""

    plan: GraphExecutionPlan
    #: Per-unit plan reports, keyed by the unit's head node id: one per
    #: translated unit (interpreted units have none).
    unit_reports: dict[str, PlanReport] = field(default_factory=dict)
    #: The optimizer's fusion / hoisting / pinning / elimination
    #: decisions (``REP407``–``REP410``) in the order it made them, then
    #: a ``REP312`` per node a non-strict run skipped.
    optimizer_diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Node ids executed by the reference interpreter (non-strict runs).
    interpreted_nodes: list[str] = field(default_factory=list)
    #: Intermediate variables fused away (never materialized).
    fused_away: list[str] = field(default_factory=list)
    #: Dataset-view materializations served from the shared records cache.
    records_cache_hits: int = 0
    #: Sum of per-unit simulated seconds (serialized execution).
    simulated_seconds_serial: float = 0.0
    #: Critical-path simulated seconds (per-wave maxima summed) — what a
    #: cluster actually running branches concurrently would take.
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def diagnostics(self) -> list:
        """The optimizer's diagnostics, then every unit's, in unit-head
        order — the roll-up a whole-program job's
        ``JobResult.diagnostics`` reads."""
        return self.optimizer_diagnostics + [
            diagnostic
            for _head, report in sorted(self.unit_reports.items())
            for diagnostic in report.diagnostics
        ]

    def summary(self) -> dict:
        """Compact dict form, convenient for logs and benchmark JSON."""
        return {
            "waves": [list(w) for w in self.plan.waves],
            "optimizer_diagnostics": [
                diagnostic.as_dict() for diagnostic in self.optimizer_diagnostics
            ],
            "interpreted_nodes": list(self.interpreted_nodes),
            "fused_away": sorted(self.fused_away),
            "records_cache_hits": self.records_cache_hits,
            "simulated_seconds_serial": round(self.simulated_seconds_serial, 6),
            "simulated_seconds": round(self.simulated_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "unit_reports": {
                head: report.summary()
                for head, report in sorted(self.unit_reports.items())
            },
        }


class DagPlanner:
    """Plans wave order for a job graph."""

    def plan(
        self, graph: "JobGraph", schedule: "GraphSchedule"
    ) -> GraphExecutionPlan:
        """Compute dependency waves.

        A unit is ready once every unit producing one of its external
        inputs has completed; ready units form a wave.
        """
        plan = GraphExecutionPlan()
        unit_of_node: dict[str, int] = {}
        for index, unit in enumerate(schedule.units):
            for node_id in unit.node_ids:
                unit_of_node[node_id] = index

        deps: dict[int, set[int]] = {i: set() for i in range(len(schedule.units))}
        for edge in graph.edges:
            producer_unit = unit_of_node.get(edge.producer)
            consumer_unit = unit_of_node.get(edge.consumer)
            if (
                producer_unit is None
                or consumer_unit is None
                or producer_unit == consumer_unit
            ):
                continue
            deps[consumer_unit].add(producer_unit)

        remaining = set(deps)
        done: set[int] = set()
        while remaining:
            wave = tuple(sorted(i for i in remaining if deps[i] <= done))
            if not wave:
                # A cycle among units: surface it via the graph's own
                # cycle reporting (names the nodes, not unit indexes).
                graph.topological_order(
                    [n for i in remaining for n in schedule.units[i].node_ids]
                )
                raise AssertionError("unreachable: cycle not detected")
            plan.waves.append(wave)
            done.update(wave)
            remaining -= set(wave)

        return plan

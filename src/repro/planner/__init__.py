"""Execution planner: cost-driven backend/partition/combiner selection.

The fifth compiler pass (``plan``) attaches an
:class:`~repro.planner.planner.ExecutionPlanner` to every adaptive
program; running with ``plan="auto"`` lets it choose between in-process
sequential execution, the real multiprocess backend, and the simulated
cluster frameworks, and surfaces the decision (plus measured reality) as
a :class:`~repro.planner.plan.PlanReport`.

:mod:`repro.planner.dag` lifts planning to whole-program job graphs:
the :class:`~repro.planner.dag.DagPlanner` schedules fused units into
dependency waves, decides how many independent branches run
concurrently, and reports the whole execution as a
:class:`~repro.planner.dag.GraphPlanReport`.
"""

from .dag import DagPlanner, GraphExecutionPlan, GraphPlanReport
from .plan import (
    BACKENDS,
    CLUSTER_BACKENDS,
    ExecutionPlan,
    PlanReport,
    StagePlan,
    forced_plan,
)
from .planner import ExecutionPlanner

__all__ = [
    "BACKENDS",
    "CLUSTER_BACKENDS",
    "DagPlanner",
    "ExecutionPlan",
    "ExecutionPlanner",
    "GraphExecutionPlan",
    "GraphPlanReport",
    "PlanReport",
    "StagePlan",
    "forced_plan",
]

"""Execution-plan data model: what the planner decides, and its report.

An :class:`ExecutionPlan` is the planner's concrete answer for one job:
which backend executes it (in-process sequential, one of the simulated
cluster frameworks, or the real multiprocess pool), how many worker
processes and logical partitions to use, and whether each reduce stage
may combine map-side.  A :class:`PlanReport` wraps the plan together
with the evidence behind it — per-backend cost estimates, the simulated
cluster ranking, the decisions that chose the plan as ``REP4xx``
diagnostics, and (after execution) the measured wall-clock time and any
fallback the engine had to take.

A plan names no kernel and no chunk layout: on the real local backends
every stage runs its compiled kernel over record chunks (a folded
vector segment over its columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..diagnostics import make as make_diagnostic

if TYPE_CHECKING:
    from ..engine.multiprocess import MultiprocessResult

#: Backends the planner may select or a caller may force.
BACKENDS = ("sequential", "multiprocess", "spark", "hadoop", "flink")

#: The framework a job runs on when its options force none
#: (``ExecOptions(plan=None)``): the paper's Spark.
DEFAULT_BACKEND = "spark"

#: The simulated cluster frameworks ranked in every report.
CLUSTER_BACKENDS = ("spark", "hadoop", "flink")


@dataclass(frozen=True)
class StagePlan:
    """Per-stage decision: pipeline stage index, kind, combiner on/off."""

    index: int
    kind: str  # "map" | "reduce"
    combiner: bool = False


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's concrete choice of how to execute one job."""

    backend: str
    #: Worker processes: 0 → strictly in-process, None → engine default.
    #: Only meaningful for the real local backends.
    processes: Optional[int] = 0
    #: Logical partitions; None → the engine's configured default.
    partitions: Optional[int] = None
    stages: tuple[StagePlan, ...] = ()
    #: Shuffle memory budget in bytes for the out-of-core engine path;
    #: None → fully in-memory execution.
    memory_budget: Optional[int] = None
    #: Whether the planner chose the external (spill-to-disk) shuffle.
    spill: bool = False
    #: Physical strategy per join level of a join pipeline, in join
    #: order ("broadcast" | "reduce_side"); empty for non-join jobs or
    #: when the codegen default rule should decide at run time.
    join_strategies: tuple[str, ...] = ()
    #: Bytes the level-0 broadcast index may grow to before the build
    #: switches to reduce-side mid-job.  None → the codegen guard uses
    #: the memory budget (or the default broadcast threshold).  Plans
    #: re-priced from observations raise it above the budget when the
    #: observed small-side size justifies broadcasting anyway.
    broadcast_limit: Optional[int] = None

    def combiner_for(self, stage_index: int) -> bool:
        """Whether the reduce stage at ``stage_index`` may combine."""
        for stage in self.stages:
            if stage.index == stage_index and stage.kind == "reduce":
                return stage.combiner
        return True

    def describe(self) -> str:
        parts = [f"backend={self.backend}"]
        if self.processes:
            parts.append(f"processes={self.processes}")
        if self.partitions is not None:
            parts.append(f"partitions={self.partitions}")
        if self.spill:
            parts.append(f"spill=on(budget={self.memory_budget})")
        if self.join_strategies:
            parts.append("join=" + "/".join(self.join_strategies))
        for stage in self.stages:
            if stage.kind == "reduce":
                parts.append(
                    f"stage[{stage.index}].combiner="
                    f"{'on' if stage.combiner else 'off'}"
                )
        return ", ".join(parts)


@dataclass
class PlanReport:
    """Evidence and outcome of one planned execution."""

    plan: ExecutionPlan
    input_records: int = 0
    #: Predicted wall-seconds per candidate local strategy.
    estimated_seconds: dict[str, float] = field(default_factory=dict)
    #: Simulated seconds per cluster framework (the paper's backends).
    cluster_seconds: dict[str, float] = field(default_factory=dict)
    #: Cheapest simulated cluster framework for this job.
    cluster_recommendation: Optional[str] = None
    #: Runtime-monitor implementation the job dispatched to.
    implementation: Optional[str] = None
    #: Backend that actually executed (differs from ``plan.backend``
    #: when the engine fell back).
    backend_used: str = ""
    wall_seconds: float = 0.0
    #: Structured diagnostics (:mod:`repro.diagnostics`), in emission
    #: order: the decisions behind the plan (``REP4xx``, in the order
    #: they were made), sampler and compile-time probe findings, the
    #: decisions taken mid-job (a join's broadcast overflow ``REP403``,
    #: a stream probe's ``REP405``/``REP406``), then the engine's
    #: fallback (``REP30x``) once the run is absorbed.
    diagnostics: list = field(default_factory=list)
    #: Estimated input bytes behind the spill decision (None when the
    #: planner had no budget to weigh, or the source length is unknown).
    estimated_input_bytes: Optional[int] = None
    #: Post-run spill accounting (runs, spilled bytes, peak resident
    #: estimate) from the engine; None for in-memory executions.
    spill_stats: Optional[dict] = None
    #: Join evidence: per-level physical strategy decisions (small-side
    #: size estimates vs the broadcast limit) and, for multi-ordering
    #: fragments, the §7.4 cardinality-based ordering choice.  None for
    #: non-join jobs.
    join: Optional[dict] = None
    #: Columnar-execution accounting from the engine (chunks that ran
    #: the vectorized path, guard-fallback count); None when every chunk
    #: ran the row loop.
    columnar: Optional[dict] = None
    #: Estimate provenance: per quantity the planner priced, where the
    #: number came from (``"static"`` | ``"observed"``), the value used,
    #: and — when an observation was available — the static estimate's
    #: relative error against the last measured run.  A stored
    #: observation that failed to load is a ``REP406`` decision instead.
    #: ``estimates["backend"]`` holds every input of the sequential-or-
    #: pool choice (record count, priced stage rows, bytes per record,
    #: worker count, the constants, both predictions): enough to
    #: recompute the choice from the report alone.
    estimates: dict = field(default_factory=dict)

    def absorb(self, result: "MultiprocessResult") -> None:
        """Record how the real local engine actually ran the plan.

        The engine's mid-job decisions (``result.diagnostics``) are
        appended in the order it made them.  A deliberately-sequential
        plan is not a "fallback" even though the engine runs it
        in-process; only a planned pool that could not run counts, and
        its engine ``REP30x`` diagnostic is appended last.
        """
        self.diagnostics.extend(result.diagnostics)
        if self.plan.backend == "multiprocess" and result.fallback is not None:
            self.backend_used = "sequential"
            self.diagnostics.append(result.fallback)
        else:
            self.backend_used = self.plan.backend
        self.spill_stats = result.spill_stats
        self.columnar = result.columnar_stats()

    def summary(self) -> dict:
        """Compact dict form, convenient for logs and benchmark JSON."""
        return {
            "backend": self.plan.backend,
            "backend_used": self.backend_used or self.plan.backend,
            "processes": self.plan.processes,
            "partitions": self.plan.partitions,
            "memory_budget": self.plan.memory_budget,
            "spill": self.plan.spill,
            "columnar": self.columnar,
            "estimated_input_bytes": self.estimated_input_bytes,
            "spill_stats": self.spill_stats,
            "input_records": self.input_records,
            "estimated_seconds": {
                name: round(value, 6)
                for name, value in sorted(self.estimated_seconds.items())
            },
            "cluster_recommendation": self.cluster_recommendation,
            "implementation": self.implementation,
            "wall_seconds": round(self.wall_seconds, 6),
            "diagnostics": [
                diag.as_dict() if hasattr(diag, "as_dict") else diag
                for diag in self.diagnostics
            ],
            "join": self.join,
            "estimates": self.estimates,
        }


def forced_plan(
    backend: str,
    stages: tuple[StagePlan, ...] = (),
    memory_budget: Optional[int] = None,
) -> ExecutionPlan:
    """A plan that pins the backend because the caller asked for it.

    A ``memory_budget`` forces the out-of-core path on the real local
    backends: the engine streams the input and spills the shuffle once
    the budget is exceeded, regardless of the planner's size estimates.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS} or 'auto'"
        )
    # The budget only binds on the real local engines: a simulated
    # cluster backend materializes everything in-memory, so claiming
    # spill=True for it would put a spill that never happened into the
    # report.
    spill = backend in ("sequential", "multiprocess") and memory_budget is not None
    return ExecutionPlan(
        backend=backend,
        processes=0 if backend == "sequential" else None,
        stages=stages,
        memory_budget=memory_budget if spill else None,
        spill=spill,
    )


def forced_report(
    backend: str, memory_budget: Optional[int] = None, input_records: int = 0
) -> PlanReport:
    """The report of a :func:`forced_plan` run: the plan plus its
    decisions — the caller's backend (``REP401``) and what became of
    its budget (``REP402``)."""
    plan = forced_plan(backend, memory_budget=memory_budget)
    report = PlanReport(plan=plan, input_records=input_records)
    report.diagnostics.append(
        make_diagnostic("REP401", f"backend {backend!r} forced by caller")
    )
    if memory_budget is not None:
        note = (
            f"spill on (memory budget {memory_budget} B forced by caller)"
            if plan.spill
            else f"memory budget {memory_budget} B ignored: simulated "
            f"{backend!r} backend materializes in-memory"
        )
        report.diagnostics.append(make_diagnostic("REP402", note))
    return report

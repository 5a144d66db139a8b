"""Whole-program DAG execution: waves, fused chains, shared intermediates.

This is the runtime half of the job-graph layer.  Given a
:class:`~repro.graph.jobgraph.JobGraph` and the program's inputs, the
executor

1. asks the fusion optimizer for the unit schedule (chains + singletons,
   dead stages dropped),
2. asks the DAG planner for dependency waves,
3. runs each wave's units in unit order on the calling thread, caching
   dataset-view materializations shared between branches (TPC-H Q1's
   two aggregates scan ``lineitem`` once, not twice),
4. executes fused chains as *one* engine invocation: the producer's
   partitioned intermediate is handed to the consumer through a bridge
   step instead of being rebuilt into source variables and re-scanned.

Results are exactly the reference semantics: :func:`interpret_reference`
runs the same graph through the sequential mini-Java interpreter, and
the property tests assert fused-DAG == per-fragment == interpreter on
every workload suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..codegen.base import (
    BagValueBridge,
    StitchBridge,
    bind_outputs,
    prepare_globals,
    run_local_steps,
    view_records,
)
from ..cost.observe import ObservationStore
from ..engine.config import EngineConfig
from ..engine.multiprocess import BridgeStep, MapStep
from ..errors import GraphError
from ..options import ExecOptions
from ..planner.dag import DagPlanner, GraphPlanReport
from ..planner.plan import DEFAULT_BACKEND, PlanReport
from .fuse import FusedChain, GraphSchedule, optimize_graph
from .jobgraph import JobGraph, JobNode


@dataclass
class GraphRunResult:
    """Everything one :func:`run_graph` execution produced."""

    outputs: dict[str, Any]
    report: GraphPlanReport
    schedule: GraphSchedule

    @property
    def simulated_seconds(self) -> float:
        return self.report.simulated_seconds

    @property
    def wall_seconds(self) -> float:
        return self.report.wall_seconds


@dataclass
class _UnitOutcome:
    """What one executed unit reports back to the wave driver."""

    unit: FusedChain
    outputs: dict[str, Any] = field(default_factory=dict)
    simulated_seconds: float = 0.0
    report: Optional[PlanReport] = None
    interpreted_nodes: list[str] = field(default_factory=list)


class _RecordsCache:
    """Dataset-view materializations of one ``run_graph`` call, one per
    (kind, sources).

    Two fragments iterating the same input dataset (independent
    branches of the DAG) materialize the record list once.  Entries are
    invalidated when a producer redefines one of their source
    variables.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, list] = {}
        self.hits = 0

    def get(self, view, env: dict[str, Any]) -> list:
        # Records depend only on the view kind and source values — the
        # index/element variable *names* only matter when binding a
        # record into a λm environment, so two loops spelling their
        # counters differently still share one materialization.
        key = (view.kind, tuple(view.sources))
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        records = self._entries[key] = view_records(view, env)
        return records

    def invalidate(self, names: set[str]) -> None:
        for key in [k for k in self._entries if set(k[1]) & names]:
            del self._entries[key]


def run_graph(
    graph: JobGraph,
    inputs: dict[str, Any],
    options: Optional[ExecOptions] = None,
    observations: Optional[ObservationStore] = None,
    config: Optional[EngineConfig] = None,
) -> GraphRunResult:
    """Execute a whole-program job graph over concrete inputs.

    This is what a :class:`~repro.session.Session` job without a
    ``fragment_index`` runs.  ``options`` (see
    :class:`~repro.options.ExecOptions`) is handed whole to every unit.
    Its ``effective_plan`` follows :meth:`AdaptiveProgram.run`: ``None``
    forces the default framework, ``"auto"`` lets the execution planner
    decide per unit, and a backend name forces it (fused chains run on
    the real local engine, where stitching exists).  ``outputs`` names
    the variables the caller needs — enabling dead-stage elimination of
    everything that cannot reach them.  ``strict=False`` lets analyzed-but-untranslated
    fragments fall back to the reference interpreter (recorded in the
    report) instead of failing the run.

    ``memory_budget`` (bytes) engages memory-aware planning per unit:
    inputs whose size estimate exceeds the budget (and streaming
    ``Dataset`` inputs of unknown length) run out of core — chunked
    scans, spill-to-disk shuffle, per-partition merge-reduce — with
    stage handoffs inside fused chains streamed the same way.

    ``observations`` (the session's store, when the job uses feedback)
    engages observation-resolved planning per single-fragment unit (see
    :meth:`AdaptiveProgram.run`); fused chains plan from their own
    spliced estimates and ignore it.  ``config``, the session's
    :class:`~repro.engine.config.EngineConfig`, goes to every unit.

    Each unit's :class:`PlanReport` comes back from the call that ran
    it and lands in ``report.unit_reports`` under the unit's head node.
    """
    started = time.perf_counter()
    options = options or ExecOptions()
    required = set(options.outputs) if options.outputs is not None else None
    schedule = optimize_graph(graph, required_vars=required, fuse=options.fuse)
    kept_ids = {n for unit in schedule.units for n in unit.node_ids}
    _check_runnable(graph, schedule, kept_ids, options.strict)

    dag_plan = DagPlanner().plan(graph, schedule)

    report = GraphPlanReport(
        plan=dag_plan,
        decisions=list(schedule.decisions),
        fused_away=sorted(schedule.fused_away),
        eliminated=dict(schedule.eliminated),
    )
    env = dict(inputs)
    produced: dict[str, Any] = {}
    cache = _RecordsCache()

    for wave in dag_plan.waves:
        # A wave's units all read the environment the previous wave
        # left; their outputs merge afterwards in unit order (= source
        # order), so a redefinition behaves as sequential execution
        # would.  The simulated cluster runs a wave's branches side by
        # side, hence the per-wave maximum.
        outcomes = [
            _run_unit(
                graph, schedule.units[index], env, options, cache, observations, config
            )
            for index in wave
        ]
        wave_simulated = 0.0
        for outcome in outcomes:
            env.update(outcome.outputs)
            produced.update(outcome.outputs)
            cache.invalidate(set(outcome.outputs))
            report.interpreted_nodes.extend(outcome.interpreted_nodes)
            if outcome.report is not None:
                report.unit_reports[outcome.unit.head] = outcome.report
            report.simulated_seconds_serial += outcome.simulated_seconds
            wave_simulated = max(wave_simulated, outcome.simulated_seconds)
        report.simulated_seconds += wave_simulated

    report.records_cache_hits = cache.hits
    report.wall_seconds = time.perf_counter() - started

    if options.outputs is not None:
        missing = [name for name in options.outputs if name not in produced]
        if missing:
            raise GraphError(
                f"requested output(s) {missing} were not produced by "
                f"{graph.function!r}; available: {sorted(produced)}"
            )
        produced = {name: produced[name] for name in options.outputs}
    return GraphRunResult(outputs=produced, report=report, schedule=schedule)


def interpret_fragment(analysis, env: dict[str, Any]) -> dict[str, Any]:
    """One fragment's reference semantics: interpret it over ``env``.

    The single definition of how a fragment's inputs are filtered out of
    an accumulated environment and run through the sequential
    interpreter — shared by the whole-program reference below, the
    executor's ``strict=False`` fallback, and the per-fragment baselines
    in the identity tests, so the three can never silently diverge.
    """
    from ..verification.bounded import ProgramState, run_sequential_fragment

    state = ProgramState(
        {name: env[name] for name in analysis.input_vars if name in env}
    )
    return run_sequential_fragment(analysis, state).outputs


def interpret_reference(graph: JobGraph, inputs: dict[str, Any]) -> dict[str, Any]:
    """Reference semantics: run every fragment with the interpreter.

    Fragments execute in source order with outputs chained forward —
    the behaviour :func:`run_graph` must reproduce exactly.  Fragments
    whose analysis failed are skipped (they have no computable
    semantics at this layer), matching the executor.
    """
    env = dict(inputs)
    produced: dict[str, Any] = {}
    for node in sorted(graph.nodes.values(), key=lambda n: n.index):
        if node.analysis is None:
            continue
        outputs = interpret_fragment(node.analysis, env)
        env.update(outputs)
        produced.update(outputs)
    return produced


# ----------------------------------------------------------------------
# Unit execution


def _check_runnable(
    graph: JobGraph, schedule: GraphSchedule, kept_ids: set[str], strict: bool
) -> None:
    """Fail fast (and informatively) on untranslated kept nodes."""
    broken: list[str] = []
    for node_id in sorted(kept_ids):
        node = graph.nodes[node_id]
        if node.translated:
            continue
        if node.analysis is None:
            # No semantics to interpret from.  Strict mode fails loudly
            # (the fragment's region may declare state later fragments
            # assume, and skipping it would surface as an opaque prelude
            # error downstream); non-strict drops it like the
            # per-fragment runner does, and says so.
            if strict:
                broken.append(
                    f"{node_id}: {node.failure_reason or 'analysis failed'}"
                )
                continue
            schedule.eliminated[node_id] = (
                f"skipped: analysis failed "
                f"({node.failure_reason or 'unknown reason'})"
            )
            schedule.units = [
                unit for unit in schedule.units if node_id not in unit.node_ids
            ]
            continue
        if strict:
            consumers = [e.consumer for e in graph.consumers_of(node_id)]
            suffix = f" (consumed by {', '.join(consumers)})" if consumers else ""
            broken.append(
                f"{node_id}: {node.failure_reason or 'not translated'}{suffix}"
            )
    if broken:
        raise GraphError(
            f"cannot execute job graph for {graph.function!r} strictly — "
            "untranslated fragment(s): "
            + "; ".join(broken)
            + ". Pass strict=False to run them on the reference interpreter."
        )


def _run_unit(
    graph: JobGraph,
    unit: FusedChain,
    env: dict[str, Any],
    options: ExecOptions,
    cache: _RecordsCache,
    observations: Optional[ObservationStore],
    config: Optional[EngineConfig],
) -> _UnitOutcome:
    outcome = _UnitOutcome(unit=unit)
    node = graph.nodes[unit.head]
    if unit.fused:
        _run_chain(graph, unit, env, options, cache, config, outcome)
    elif node.translated:
        _run_single(node, env, options, cache, observations, config, outcome)
    else:
        _run_interpreted(node, env, outcome)
    return outcome


def _run_single(
    node: JobNode,
    env: dict[str, Any],
    options: ExecOptions,
    cache: _RecordsCache,
    observations: Optional[ObservationStore],
    config: Optional[EngineConfig],
    outcome: _UnitOutcome,
) -> None:
    records = cache.get(node.analysis.view, env)
    ran = node.program.run(
        env, options, records=records, observations=observations, config=config
    )
    outcome.outputs = ran.outputs
    outcome.report = ran.report
    outcome.simulated_seconds = ran.metrics.simulated_seconds


def _run_interpreted(
    node: JobNode, env: dict[str, Any], outcome: _UnitOutcome
) -> None:
    outcome.outputs = interpret_fragment(node.analysis, env)
    outcome.interpreted_nodes.append(node.id)


def _run_chain(
    graph: JobGraph,
    unit: FusedChain,
    env: dict[str, Any],
    options: ExecOptions,
    cache: _RecordsCache,
    config: Optional[EngineConfig],
    outcome: _UnitOutcome,
) -> None:
    """Execute a fused chain as one engine invocation.

    The chain's stages are spliced into a single step list — producer
    stages, a bridge per link, consumer stages — so the intermediate
    dataset flows through partitioned memory instead of the §6.3
    rebuild-and-rescan glue.  Simulated accounting reflects that: one
    scan, one job startup, driver-collect-priced bridges.  Under a
    memory budget the whole spliced pipeline streams: chunked scan,
    spilled shuffles, and bridge handoffs re-chunked into the next
    stage instead of re-materialized record lists.
    """
    head = graph.nodes[unit.head]
    chosen = head.program.programs[unit.impl_indexes[0]]
    globals_env, output_sizes = prepare_globals(head.analysis, env)
    records = cache.get(head.analysis.view, env)
    execution_plan, report = _chain_plan(
        unit, head, chosen, records, globals_env, options, config
    )
    # The plan's per-stage combiner decisions index the head program's
    # stages, so only the head's steps honour them; downstream nodes
    # keep the proof-gated default.
    steps = chosen.local_steps(globals_env, execution_plan)
    bridges: list[StitchBridge] = []

    prev = (head, chosen, globals_env, output_sizes)
    for link, node_id in enumerate(unit.node_ids[1:]):
        node = graph.nodes[node_id]
        node_chosen = node.program.programs[unit.impl_indexes[link + 1]]
        node_globals, node_sizes = prepare_globals(node.analysis, env)
        if unit.bridges[link] == "map":
            steps.append(MapStep(BagValueBridge(), complexity=1))
        else:
            _prev_node, prev_chosen, prev_globals, prev_sizes = prev
            bridge = StitchBridge(
                bindings=prev_chosen.summary.outputs,
                globals_env=prev_globals,
                output_sizes=prev_sizes,
                view=node.analysis.view,
            )
            bridges.append(bridge)
            steps.append(BridgeStep(bridge))
        steps.extend(node_chosen.local_steps(node_globals))
        prev = (node, node_chosen, node_globals, node_sizes)

    tail_node, tail_chosen, tail_globals, tail_sizes = prev
    result = run_local_steps(
        execution_plan, config, execution_plan.backend, records, steps
    )
    outputs = bind_outputs(
        tail_chosen.summary.outputs, result.pairs, tail_globals, tail_sizes
    )
    # Barrier bridges materialize their intermediates anyway; surface
    # them so downstream consumers (and callers) still see the values.
    for bridge in bridges:
        outcome.outputs.update(bridge.captured)
    outcome.outputs.update(outputs)
    outcome.simulated_seconds = result.metrics.simulated_seconds
    report.absorb(result)
    report.wall_seconds = result.metrics.wall_seconds
    outcome.report = report


def _chain_plan(
    unit: FusedChain,
    head: JobNode,
    chosen,
    records: Any,
    globals_env: dict[str, Any],
    options: ExecOptions,
    config: Optional[EngineConfig],
):
    """Resolve the execution plan for a fused chain.

    Fused stitching only exists on the real local engines; a simulated
    cluster backend — forced, or the default one a job without a plan
    runs on — therefore degrades to sequential local execution with the
    decision recorded, rather than silently unfusing or failing.
    """
    plan = options.effective_plan or DEFAULT_BACKEND
    extra_reasons: tuple[str, ...] = ()
    if plan not in ("auto", "sequential", "multiprocess"):
        # A simulated cluster backend cannot execute a stitched chain.
        options = options.merged(plan="sequential")
        extra_reasons += (
            f"fused chains run locally; {plan!r} backend degraded to sequential",
        )
    sample = head.program.sample_head(records) if plan == "auto" else []
    execution_plan, report = head.program.plan_execution(
        options, chosen, records, sample, globals_env, config=config
    )
    if plan == "auto":
        report.implementation = f"impl_{unit.impl_indexes[0]}"
        # The planner's price and estimates cover the head fragment
        # only; downstream stages of the chain are not costed, so a
        # compute-heavy consumer can make this an underestimate.
        # Recorded so the evidence trail stays honest.
        extra_reasons += (
            f"estimates cover head fragment {unit.head} only "
            f"({len(unit.node_ids) - 1} fused downstream stage(s) uncosted)",
        )
    if extra_reasons:
        execution_plan = replace(
            execution_plan, reasons=execution_plan.reasons + extra_reasons
        )
        report.plan = execution_plan
    return execution_plan, report

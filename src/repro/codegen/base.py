"""Code generation: executable plans from verified program summaries.

Translates a summary into a job on the real local engine — compiled
kernels over block partitions (:mod:`repro.codegen.kernels`) — applying
the paper's rules (section 6.3):

* map-side combining (``reduceByKey``) is used only when λr was proven
  commutative and associative; otherwise every value is shuffled and
  folded in arrival order (``groupByKey`` + ordered fold);
* glue code converts the fragment's inputs into the framework's dataset
  (records), broadcasts scalar inputs, and rebuilds the output variables
  from the result pairs.

The three simulated cluster backends (Spark RDDs, Hadoop jobs, Flink
DataSets) run the same job once on that engine and price its counters
through the framework's stage sequence (:func:`repro.engine.core.price`).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from ..cost.monitor import SampleEstimates
    from ..engine.multiprocess import MultiprocessResult
    from ..planner.plan import ExecutionPlan, PlanReport
    from .joins import JoinLevelDecision

from ..cost.model import CostExpr, CostModel
from ..diagnostics import make as make_diagnostic
from ..errors import CodegenError, InterpreterError
from ..lang.analysis.fragments import FragmentAnalysis
from ..lang.analysis.loops import DatasetView
from ..lang.interpreter import Environment, Interpreter
from ..engine.config import EngineConfig
from ..engine.core import JoinSide, price
from ..engine.sizes import dataset_bytes
from ..ir.eval import eval_expr
from ..ir.nodes import (
    Emit,
    JoinStage,
    MapStage,
    OutputBinding,
    ReduceStage,
    Summary,
    expr_size,
)
from ..options import JobResult
from ..verification.prover import ProofResult


def prepare_globals(
    analysis: FragmentAnalysis, inputs: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, int]]:
    """Run the fragment prelude to obtain broadcast values and array sizes."""
    interp = Interpreter(analysis.program)
    env = Environment()
    for name, value in inputs.items():
        env.define(name, value)
    for stmt in analysis.fragment.prelude:
        try:
            interp.exec_stmt(stmt, env)
        except InterpreterError as exc:
            raise CodegenError(f"prelude execution failed: {exc}") from exc
    flat = env.flat()
    output_sizes = {
        name: len(flat[name])
        for name in analysis.output_vars
        if isinstance(flat.get(name), list)
    }
    from ..verification.bounded import summary_globals

    globals_env = summary_globals(analysis, flat)
    return globals_env, output_sizes


def view_records(view: DatasetView, inputs: dict[str, Any]) -> Any:
    """Raw records handed to the framework (sizes must be realistic).

    foreach → the item itself; array1d → (i, v...); array2d → (i, j, v).
    A ``foreach`` over a list returns that list, borrowed: the job reads
    it in place and never writes it (a set is sorted, any other
    collection copied once).  A ``foreach`` input may also be a
    :class:`~repro.engine.source.Dataset` (streamed, never materialized
    here); the array views need random access and reject streaming
    sources.
    """
    from ..engine.source import Dataset

    if view.kind == "join":
        # The engine scans the base (left) relation; the other sides are
        # materialized by the join step builder through their own views.
        return view_records(view.sides[0], inputs)
    if view.kind == "foreach":
        collection = inputs[view.sources[0]]
        if isinstance(collection, Dataset):
            return collection
        if isinstance(collection, list):
            return collection
        return sorted(collection) if isinstance(collection, set) else list(collection)
    if any(isinstance(inputs.get(name), Dataset) for name in view.sources):
        raise CodegenError(
            f"streaming Dataset inputs require a foreach view; "
            f"{view.kind!r} views need random access — materialize the "
            "source to a list first"
        )
    if view.kind == "array1d":
        arrays = [inputs[name] for name in view.sources]
        length = min(len(a) for a in arrays)
        return list(zip(range(length), *arrays))
    if view.kind == "array2d":
        matrix = inputs[view.sources[0]]
        return [
            (i, j, value)
            for i, row in enumerate(matrix)
            for j, value in enumerate(row)
        ]
    raise CodegenError(f"unsupported view kind {view.kind!r}")


def record_env(view: DatasetView, record: Any) -> dict[str, Any]:
    """Bind one raw record to the λm parameter environment."""
    if view.kind == "join":
        # Records of a join view are the base relation's elements (the
        # first map stage's λm binds the base fields).
        return record_env(view.sides[0], record)
    if view.kind == "foreach":
        return view._element_of(record)
    if view.kind == "array1d":
        env = {view.index_vars[0]: record[0]}
        for name, value in zip(view.sources, record[1:]):
            env[name] = value
        return env
    if view.kind == "array2d":
        return {view.index_vars[0]: record[0], view.index_vars[1]: record[1], "v": record[2]}
    raise CodegenError(f"unsupported view kind {view.kind!r}")


def _emitted(emits: tuple[Emit, ...], env: dict[str, Any]) -> list[tuple]:
    """The pairs ``emits`` produce in ``env``, on the evaluator."""
    return [
        (eval_expr(emit.key, env), eval_expr(emit.value, env))
        for emit in emits
        if emit.cond is None or eval_expr(emit.cond, env)
    ]


@dataclass
class RecordMapper:
    """The first map stage on the evaluator: raw record → emitted pairs.

    With :class:`PairMapper` and :class:`ReduceApplier`, the semantic
    reference the compiled kernels are tested against
    (:meth:`GeneratedProgram.oracle_steps`).  Module-level callable
    classes, so the oracle ships to pool workers like production does.
    """

    emits: tuple[Emit, ...]
    globals_env: dict[str, Any]
    view: DatasetView

    def __call__(self, record: Any) -> list[tuple]:
        return _emitted(
            self.emits, {**self.globals_env, **record_env(self.view, record)}
        )


@dataclass
class PairMapper:
    """A later map stage on the evaluator: (key, value) pair → pairs."""

    params: tuple[str, ...]
    emits: tuple[Emit, ...]
    globals_env: dict[str, Any]

    def __call__(self, pair: tuple) -> list[tuple]:
        value_name = self.params[1] if len(self.params) > 1 else "v"
        env = {**self.globals_env, self.params[0]: pair[0], value_name: pair[1]}
        return _emitted(self.emits, env)


@dataclass
class ReduceApplier:
    """λr on the evaluator, as a two-argument callable."""

    body: Any
    params: tuple[str, str]
    globals_env: dict[str, Any]

    def __call__(self, a: Any, b: Any) -> Any:
        env = {**self.globals_env, self.params[0]: a, self.params[1]: b}
        return eval_expr(self.body, env)


@dataclass
class BagValueBridge:
    """Per-record map→map bridge: a bag pair becomes the next record.

    A map-only producer whose output binds as a ``bag`` emits pairs
    whose *values* are exactly the elements a downstream ``foreach``
    consumer iterates, so the handoff is a pure per-record map — the
    intermediate list is never materialized.  Module-level and picklable
    so fused chains still ship to the multiprocess pool.
    """

    def __call__(self, pair: tuple) -> list:
        return [pair[1]]


@dataclass
class StitchBridge:
    """Driver-side fused handoff: rebind pairs, re-view as records.

    Runs the producer's glue (``bind_outputs``) and the consumer's scan
    (``view_records``) back-to-back inside one engine invocation —
    the partitioned intermediate moves straight to the downstream job
    instead of being rebuilt between two separate jobs.  The
    materialized intermediate values are kept in ``captured`` so the
    graph executor can still report them as program outputs.
    """

    bindings: tuple[OutputBinding, ...]
    globals_env: dict[str, Any]
    output_sizes: dict[str, int]
    view: DatasetView  # the downstream consumer's dataset view
    #: The producer's :attr:`GeneratedProgram.summed`.
    summed: bool = False
    captured: dict[str, Any] = field(default_factory=dict)

    def __call__(self, pairs: list) -> list:
        outputs = bind_outputs(
            self.bindings, pairs, self.globals_env, self.output_sizes, self.summed
        )
        self.captured.update(outputs)
        return view_records(self.view, outputs)


def _pair_emit_fn(stage: MapStage, globals_env: dict[str, Any]) -> PairMapper:
    return PairMapper(
        params=stage.lam.params, emits=stage.lam.emits, globals_env=globals_env
    )


def _compiled(fn: Any) -> Any:
    """The compiled kernel of one evaluator callable's stage, rendered
    and built now, at plan time.  IR the renderer cannot express — an
    unknown operator, function or expression type, which the evaluator
    rejects too — raises :class:`~repro.errors.KernelUnsupported`."""
    from .kernels import CompiledPairMapper, CompiledRecordMapper, CompiledReduce

    compiled: Any
    if isinstance(fn, RecordMapper):
        compiled = CompiledRecordMapper(
            emits=fn.emits, globals_env=fn.globals_env, view=fn.view
        )
    elif isinstance(fn, PairMapper):
        compiled = CompiledPairMapper(
            params=fn.params, emits=fn.emits, globals_env=fn.globals_env
        )
    else:
        compiled = CompiledReduce(
            body=fn.body, params=fn.params, globals_env=fn.globals_env
        )
    compiled._ensure()
    # A pool task pickles the stage: keep only the globals its kernel
    # reads (a fused stage's env also holds the whole input dataset).
    compiled.globals_env = {
        name: fn.globals_env[name] for name in compiled._rendered.globals
    }
    return compiled


def _stage_complexity(stage: MapStage) -> int:
    total = 0
    for emit in stage.lam.emits:
        total += expr_size(emit.key) + expr_size(emit.value)
        if emit.cond is not None:
            total += expr_size(emit.cond)
    return max(1, total)


def bind_outputs(
    bindings: tuple[OutputBinding, ...],
    pairs: list[tuple[Any, Any]],
    globals_env: dict[str, Any],
    output_sizes: dict[str, int],
    summed: bool = False,
) -> dict[str, Any]:
    """Rebuild fragment outputs from the job's result pairs (glue code).

    ``summed`` says a ``+`` λr folded the pairs' values (the program's
    :attr:`GeneratedProgram.summed`).  A number the fold produced for an
    output whose start value (``default``) is a float is then bound as
    ``start + folded``, as the source's ``double t = 0; t = t + v[i]``
    computes it: the fold alone leaves a sum of −0.0s at −0.0, where
    the source's is 0.0, and a sum of ints an int, where the source's is
    a double.  A whole map's start is the one its loop reads it with
    (``m.getOrDefault(k, 0.0)``).  Nothing else changes, since the start
    of a proved sum is its identity."""
    result_map: dict[Any, Any] = dict(pairs)
    outputs: dict[str, Any] = {}
    for binding in bindings:
        start = binding.default
        started = summed and type(start) is float
        if binding.kind == "keyed":
            key = (
                eval_expr(binding.key, globals_env)
                if binding.key is not None
                else binding.var
            )
            if key in result_map:
                value = result_map[key]
                if binding.project is not None:
                    value = value[binding.project]
                elif started:
                    value = _from_start(start, value)
            else:
                value = binding.default
            outputs[binding.var] = value
        else:
            folded = result_map
            if started and binding.container in ("map", "array"):
                folded = {key: _from_start(start, value) for key, value in folded.items()}
            if binding.container == "map":
                outputs[binding.var] = dict(folded)
            elif binding.container == "set":
                outputs[binding.var] = set(result_map.keys())
            elif binding.container == "bag":
                outputs[binding.var] = [value for _, value in pairs]
            else:  # array
                size = output_sizes.get(binding.var)
                if size is None:
                    size = (max(result_map.keys()) + 1) if result_map else 0
                outputs[binding.var] = [folded.get(i, start) for i in range(size)]
    return outputs


def _from_start(start: float, value: Any) -> Any:
    """A folded float or exact int, bound through its float start."""
    return start + value if type(value) is float or type(value) is int else value


@dataclass
class GeneratedProgram:
    """An executable translation of one code fragment; the framework
    it runs on is chosen per run."""

    analysis: FragmentAnalysis
    summary: Summary
    proof: ProofResult
    #: The compiled sampler, built by the first job that samples.
    _sampler: Any = field(default=None, init=False, repr=False, compare=False)

    def run(
        self,
        inputs: dict[str, Any],
        backend: Optional[str] = None,
        plan: Optional["ExecutionPlan"] = None,
        records: Optional[list] = None,
        config: Optional[EngineConfig] = None,
    ) -> JobResult:
        """Execute on ``backend`` (None → the default framework,
        :data:`~repro.planner.plan.DEFAULT_BACKEND`) under ``plan``
        (None, or a plan for another backend → a bare plan): one
        :meth:`execute` call with a fresh report of that plan.

        A list in ``inputs`` (or ``records``) is borrowed for the run:
        read in place, never written, and not to be mutated until the
        run returns."""
        from ..planner.plan import DEFAULT_BACKEND, ExecutionPlan, PlanReport

        backend = backend or DEFAULT_BACKEND
        if plan is None or plan.backend != backend:
            plan = ExecutionPlan(backend=backend, processes=None)
        return self.execute(PlanReport(plan=plan), inputs, records, config)

    def execute(
        self,
        report: "PlanReport",
        inputs: dict[str, Any],
        records: Optional[list] = None,
        config: Optional[EngineConfig] = None,
    ) -> JobResult:
        """Run ``report.plan``; the returned :class:`~repro.options.JobResult`
        carries ``report``, filled in with how the run went, as its
        ``plan_report``.

        ``sequential`` and ``multiprocess`` are the *real* local
        backends: they run the compiled kernels under the plan's
        physical choices — processes, partitions, combiners, budget —
        and the engine's own account of the run (fallback, spill and
        columnar accounting, mid-job decisions) is absorbed into the
        report here, the one place it lands; a join's broadcast build
        that overflowed before the engine started goes ahead of it.  A
        simulated cluster backend ignores the rest of the plan: the job
        runs once, sequentially on the real engine with a bare plan (the
        config's block partitions, no budget), and
        :func:`~repro.engine.core.price` turns that run's counters into
        the framework's metrics.
        ``records`` lets a caller that already materialized
        ``view_records(analysis.view, inputs)`` (the planner does, for
        its samples) pass them through instead of paying the
        transformation twice.  ``config`` (None → ``EngineConfig()``) is
        the session's engine configuration; the program holds none.
        """
        config = config or EngineConfig()
        backend = report.plan.backend
        started = time.perf_counter()
        if backend in ("spark", "hadoop", "flink"):
            # The pricing plan broadcasts without a limit: nothing switches.
            outputs, steps, result, _switched = self._run_local(
                inputs, config, "sequential", self._pricing_plan(backend), records
            )
            if self.has_join:
                steps = self._join_sides(steps, inputs)
            metrics = price(backend, config, steps, result)
            report.backend_used = backend
        elif backend in ("multiprocess", "sequential"):
            outputs, _steps, result, switched = self._run_local(
                inputs, config, backend, report.plan, records
            )
            metrics = result.metrics
            if switched is not None:
                _record_switch(report, switched)
            report.absorb(result)
        else:
            raise CodegenError(f"unknown backend {backend!r}")
        report.wall_seconds = time.perf_counter() - started
        return JobResult(outputs=outputs, plan_report=report, metrics=metrics)

    # ------------------------------------------------------------------

    @cached_property
    def summed(self) -> bool:
        """Whether a ``+`` λr folds the values the outputs are bound from
        (see :func:`bind_outputs`)."""
        from .kernels import recognize_fold

        stages = self.summary.pipeline.stages
        return bool(stages) and isinstance(stages[-1], ReduceStage) and (
            recognize_fold(stages[-1].lam.body, stages[-1].lam.params) == "sum"
        )

    @property
    def has_join(self) -> bool:
        """Whether the summary's pipeline contains a join stage."""
        return any(isinstance(s, JoinStage) for s in self.summary.pipeline.stages)

    def _combiner_safe(self) -> bool:
        return self.proof.is_commutative and self.proof.is_associative

    @cached_property
    def cost(self) -> CostExpr:
        """The §5.1 cost expression of this implementation — computed
        once, the only place an implementation is costed: pruning, the
        runtime monitor, the planner's cluster ranking and the fused-chain
        pick all read it."""
        return CostModel().summary_cost(
            self.summary, commutative_associative=self._combiner_safe()
        )

    @cached_property
    def stage_rows(self) -> tuple[tuple, ...]:
        """``(stage index, kind, ops, reach)`` per pipeline stage
        (:func:`~repro.planner.planner.stage_ops`), what the planner's
        backend price reads."""
        from ..planner.planner import stage_ops

        return stage_ops(self.summary.pipeline)

    def sample_estimates(
        self,
        head: list,
        globals_env: dict[str, Any],
        right: Optional[dict[str, list]] = None,
    ) -> "SampleEstimates":
        """§5.2's sampling pass over ``head``, the first k *raw* records
        of the input (``view_records`` form), through this
        implementation's compiled sampler.

        ``right`` maps a join's right relations to bounded raw samples
        of theirs; with them the estimate is carried through the join
        stages (see :func:`~repro.cost.monitor.estimate_from_sample`).
        The result equals the reference estimator's over the same
        records bound with :func:`record_env`.  When the sampler cannot
        be rendered, or anything in it raises on this sample, the
        reference estimator runs instead — so its estimates, or the
        error *it* raises, are the outcome — and the estimates carry one
        ``REP309`` saying why.
        """
        from ..cost.monitor import SampleEstimates, estimate_from_sample
        from .kernels import CompiledSampler

        estimates = SampleEstimates(sample_size=len(head))
        if not head:
            return estimates
        view = self.analysis.view
        if self._sampler is None:
            join = self.analysis.join
            self._sampler = CompiledSampler(
                self.summary.pipeline,
                view,
                {side.source: side.view for side in join.sides} if join else {},
            )
        sides = self._sampler.right_views
        try:
            self._sampler.run(
                head,
                globals_env,
                right or {},
                estimates.probabilities,
                estimates.key_ratios,
            )
        except Exception as exc:  # noqa: BLE001 - any failure → the reference decides
            failure = f"{type(exc).__name__}: {exc}"
        else:
            return estimates
        estimates = estimate_from_sample(
            self.summary,
            [record_env(view, record) for record in head],
            globals_env,
            right_samples={
                source: [record_env(sides[source], record) for record in records]
                for source, records in (right or {}).items()
            },
        )
        estimates.diagnostics.append(
            make_diagnostic(
                "REP309",
                f"compiled sampler did not answer ({failure}); the "
                "reference estimator sampled this run",
                fragment=self.analysis.fragment.id,
            )
        )
        return estimates

    def _reduce_fn(
        self, stage: ReduceStage, globals_env: dict[str, Any]
    ) -> ReduceApplier:
        lam = stage.lam
        return ReduceApplier(
            body=lam.body, params=lam.params, globals_env=globals_env
        )

    def oracle_steps(
        self,
        globals_env: dict[str, Any],
        plan: Optional["ExecutionPlan"] = None,
    ) -> list[Any]:
        """The real-engine step list on the tree-walking evaluator.

        One ``RecordMapper`` / ``PairMapper`` / ``ReduceApplier`` step
        per pipeline stage: the semantic reference the differential
        tests run beside :meth:`local_steps`, and what
        :meth:`local_steps` compiles stage by stage.
        """
        from ..engine.multiprocess import MapStep, ReduceStep

        steps: list[Any] = []
        for index, stage in enumerate(self.summary.pipeline.stages):
            if isinstance(stage, MapStage):
                if index == 0:
                    fn: Any = RecordMapper(
                        stage.lam.emits, globals_env, self.analysis.view
                    )
                else:
                    fn = _pair_emit_fn(stage, globals_env)
                steps.append(MapStep(fn, _stage_complexity(stage)))
            elif isinstance(stage, ReduceStage):
                combine = self._combiner_safe()
                if plan is not None:
                    combine = combine and plan.combiner_for(index)
                steps.append(
                    ReduceStep(self._reduce_fn(stage, globals_env), combine=combine)
                )
            elif isinstance(stage, JoinStage):
                raise CodegenError(
                    "join pipelines need their input datasets to build "
                    "steps — use codegen.joins.build_join_steps (joins "
                    "also never splice into fused chains)"
                )
        return steps

    def local_steps(
        self,
        globals_env: dict[str, Any],
        plan: Optional["ExecutionPlan"] = None,
    ) -> list[Any]:
        """The real-engine step list for this program's pipeline.

        The job-graph executor composes several programs' step lists
        (joined by bridge steps) into one fused engine invocation, so
        this is the seam where a fragment's translation stops being a
        whole job and becomes splice-able stages.

        Every stage of :meth:`oracle_steps` is rendered to Python source
        and compiled (:mod:`repro.codegen.kernels`).
        """
        return [
            replace(step, fn=_compiled(step.fn))
            for step in self.oracle_steps(globals_env, plan)
        ]

    def _pricing_plan(self, framework: str) -> Optional["ExecutionPlan"]:
        """The plan of the real run a simulated ``framework`` is priced
        from: bare, except that a join builds every level's broadcast
        index — its entries are the right relation's pairs, which Spark's
        shuffle join moves whole.  Hadoop and Flink have no join."""
        if not self.has_join:
            return None
        if framework != "spark":
            raise CodegenError(
                "join pipelines are generated for the spark and real local "
                f"backends; the simulated {framework} backend has no join operator"
            )
        from ..planner.plan import ExecutionPlan

        levels = sum(isinstance(s, JoinStage) for s in self.summary.pipeline.stages)
        return ExecutionPlan(
            "sequential",
            join_strategies=("broadcast",) * levels,
            broadcast_limit=sys.maxsize,
        )

    def _join_sides(self, steps: list, inputs: dict[str, Any]) -> list:
        """``steps`` of an all-broadcast join run, each probe replaced by
        the :class:`~repro.engine.core.JoinSide` it probed."""
        priced = list(steps)
        for index, stage in enumerate(self.summary.pipeline.stages):
            if isinstance(stage, JoinStage):
                side = self.analysis.join.side_for(stage.right.source)
                records = view_records(side.view, inputs)
                probe = steps[index].fn  # the level's BroadcastLookup
                pairs = [(k, v) for k, values in probe.index.items() for v in values]
                priced[index] = JoinSide(
                    records=len(records), bytes=dataset_bytes(records),
                    pairs=len(pairs), pairs_bytes=dataset_bytes(pairs),
                    complexity=_stage_complexity(stage.right.stages[0]),
                )
        return priced

    def _run_local(
        self,
        inputs: dict[str, Any],
        config: EngineConfig,
        backend: str,
        plan: Optional["ExecutionPlan"],
        records: Optional[list],
    ) -> tuple[
        dict[str, Any], list, "MultiprocessResult", Optional["JoinLevelDecision"]
    ]:
        """Real execution — multiprocess pool, or in-process sequential:
        the bound outputs, the step list that ran, the engine's result,
        and a join's mid-job switch to reduce-side (None when none).

        Both modes run the identical algorithm (the multiprocess engine
        with ``processes=0`` executes inline), so their results are
        byte-identical and their wall-clock times directly comparable.
        """
        globals_env, output_sizes = prepare_globals(self.analysis, inputs)
        switched = None
        if self.has_join:
            from .joins import build_join_steps

            records, steps, switched = build_join_steps(
                self,
                globals_env,
                inputs,
                plan=plan,
                left_records=records if isinstance(records, list) else None,
            )
        else:
            if records is None:
                records = view_records(self.analysis.view, inputs)
            steps = self.local_steps(globals_env, plan)
        result = run_local_steps(plan, config, backend, records, steps)
        outputs = bind_outputs(
            self.summary.outputs, result.pairs, globals_env, output_sizes, self.summed
        )
        return outputs, steps, result, switched


def _record_switch(report: "PlanReport", switched: "JoinLevelDecision") -> None:
    """Report a join level's mid-job switch: its ``REP403`` decision,
    and the report's join evidence rewritten to describe what ran."""
    report.diagnostics.append(make_diagnostic("REP403", switched.reason))
    if (report.join or {}).get("levels"):
        report.join = {
            **report.join,
            "levels": [
                (
                    {**level, "strategy": switched.strategy, "reason": switched.reason}
                    if level.get("relation") == switched.relation
                    else level
                )
                for level in report.join["levels"]
            ],
        }


def run_local_steps(
    plan: Optional["ExecutionPlan"],
    config: Optional[EngineConfig],
    backend: str,
    records: Any,
    steps: list,
) -> "MultiprocessResult":
    """Build the real local engine from a plan and run a step list on it.

    The one place a :class:`~repro.engine.multiprocess.MultiprocessEngine`
    is constructed: single fragments and fused chains both come through
    here.  The plan (None → a bare plan, whose defaults are the
    engine's) carries every physical choice — partitions, budget — and,
    on the ``multiprocess`` backend, the worker count (None → one per
    core); ``sequential`` pins in-process execution.
    """
    from ..engine.multiprocess import MultiprocessEngine
    from ..planner.plan import ExecutionPlan

    config = (config or EngineConfig()).with_framework("multiprocess")
    if plan is None:
        plan = ExecutionPlan(backend=backend, processes=None)
    engine = MultiprocessEngine(
        config=config,
        processes=0 if backend == "sequential" else plan.processes,
        partitions=plan.partitions,
        memory_budget=plan.memory_budget,
    )
    return engine.run_pipeline(records, steps)

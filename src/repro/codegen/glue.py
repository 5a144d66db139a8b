"""Glue code: the adaptive program wrapping multiple implementations.

For a fragment with several statically-incomparable verified summaries,
the code generator emits all of them plus a runtime monitor that samples
the input, estimates the unknown cost terms, and dispatches to the
cheapest implementation (paper sections 5.2, 6.3, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..cost.model import CostModel
from ..cost.monitor import Implementation, RuntimeMonitor
from ..cost.observe import (
    ObservationStore,
    dataset_fingerprint,
    fragment_observation_key,
    harvest_observation,
)
from ..diagnostics import Diagnostic
from ..diagnostics import make as make_diagnostic
from ..engine.config import EngineConfig
from ..lang.analysis.fragments import FragmentAnalysis
from ..options import ExecOptions, JobResult
from ..planner.plan import DEFAULT_BACKEND, ExecutionPlan, PlanReport, forced_report
from ..planner.planner import ExecutionPlanner
from ..synthesis.search import VerifiedSummary
from .base import GeneratedProgram, view_records


#: The paper's k: the monitor samples the first k records of the input.
SAMPLE_RECORDS = 5000


def _record_count(records: Any) -> int:
    """Record count for reporting; 0 when a stream's length is unknown."""
    from ..engine.source import Dataset

    if isinstance(records, Dataset):
        return records.known_length or 0
    return len(records)


@dataclass
class AdaptiveProgram:
    """The generated program with its monitor and implementations.

    Running it performs the full generated-code behaviour: sample the
    first k input values, estimate costs, pick and execute the cheapest
    implementation.  :meth:`run` keeps no per-call state on the program
    — everything a call produced comes back on its returned
    :class:`~repro.options.JobResult` — so concurrent calls on one
    program object cannot read each other's reports.
    """

    analysis: FragmentAnalysis
    programs: list[GeneratedProgram]
    monitor: RuntimeMonitor = field(init=False)
    #: Built by :meth:`ensure_planner` — the pipeline's ``plan`` pass
    #: asks at compile time, a hand-built program's first
    #: ``plan="auto"`` run asks then.
    planner: Optional[ExecutionPlanner] = None
    _fragment_key: Optional[str] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.monitor = RuntimeMonitor(
            implementations=[
                Implementation(
                    name=f"impl_{index}",
                    summary=program.summary,
                    cost=program.cost,
                    sampler=program.sample_estimates,
                )
                for index, program in enumerate(self.programs)
            ]
        )

    # ------------------------------------------------------------------

    def run(
        self,
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
        records: Optional[Any] = None,
        observations: Optional[ObservationStore] = None,
        config: Optional[EngineConfig] = None,
    ) -> JobResult:
        """Sample, select, execute; returns the call's result.

        The returned :class:`~repro.options.JobResult` carries the
        fragment ``outputs``, the engine ``metrics`` and the
        :class:`PlanReport` evidence trail as ``plan_report``: the
        ``implementation`` the monitor dispatched to, the §7.4 ordering
        choice (``join["ordering"]``, join fragments with several
        orderings), how the engine ran the plan, and the diagnostics:
        the decisions behind the plan (``REP4xx``) and the ``REP3xx``
        findings.

        ``options`` (see :class:`~repro.options.ExecOptions`) says how:
        its ``effective_plan`` selects the execution strategy — ``None``
        forces :data:`~repro.planner.plan.DEFAULT_BACKEND` (the paper's
        Spark), ``"auto"`` lets the execution planner choose, a backend
        name forces it — and ``memory_budget`` is folded by the planner
        into the :class:`ExecutionPlan` the engines consume.
        ``observations`` closes the adaptive loop: a run that names a
        plan (or implies one) given a store resolves its estimates
        against the observation recorded by the last run over the same
        ``(fragment, dataset)`` and records a fresh one afterwards;
        without one it plans cold and records nothing.  A
        :class:`~repro.session.Session` passes its own store when the
        job's ``ExecOptions.feedback`` (else the session's ``observe``)
        says so — the program never holds one.
        Feedback never changes results — only which plan produces them.
        ``config``, the session's :class:`~repro.engine.config.EngineConfig`,
        is handed down the same way.

        ``records`` lets a caller that already materialized
        ``view_records(analysis.view, inputs)`` (the graph executor
        caches them across fragments sharing a dataset) pass them in
        instead of paying the transformation again; it may also be a
        :class:`~repro.engine.source.Dataset` streamed out of core.
        """
        options = options or ExecOptions()
        # Feedback stays with jobs that name (or imply) a plan: a
        # default job neither reads nor records observations.
        use_feedback = observations is not None and options.effective_plan is not None
        if records is None:
            records = view_records(self.analysis.view, inputs)
        observation = None
        observation_note = None
        fragment_key = dataset_key = None
        if use_feedback:
            fragment_key = self._observation_key()
            dataset_key = dataset_fingerprint(inputs)
            observation, observation_note = observations.lookup(
                fragment_key, dataset_key
            )
        head = self.sample_head(records)
        globals_env = self._globals(inputs)
        sampled: dict[str, Any] = {}
        index, _costs = self.monitor.choose(head, globals_env, estimates_out=sampled)
        sampler_fallbacks = [
            d for estimates in sampled.values() for d in estimates.diagnostics
        ]
        # §7.4: when the verified implementations are join pipelines with
        # different orderings, the ordering decision comes from the
        # observed relation cardinalities (Eqn 4 over the join chain) —
        # the sampled-cost monitor cannot see the inner relations' sizes.
        join_decision = None
        if len(self.programs) > 1:
            from ..planner.joins import choose_join_ordering

            ordering_kwargs: dict[str, Any] = {}
            if observation is not None and observation.join_selectivity:
                # A measured selectivity replaces Eqn 4's default in the
                # ordering costs; the decision records its source.
                ordering_kwargs = {
                    "selectivity": observation.join_selectivity,
                    "selectivity_source": "observed",
                }
            join_decision = choose_join_ordering(
                [p.summary for p in self.programs], inputs, **ordering_kwargs
            )
            if join_decision is not None:
                index = join_decision.index
        program = self.programs[index]
        implementation = f"impl_{index}"
        _plan, report = self.plan_execution(
            options, program, records, head, globals_env,
            inputs=inputs,
            observation=observation,
            observation_note=observation_note,
            estimates=sampled.get(implementation),
            config=config,
        )
        report.implementation = implementation
        report.diagnostics[:0] = sampler_fallbacks
        unproved = self.unproved_diagnostic(index)
        if unproved is not None:
            report.diagnostics.append(unproved)
        if join_decision is not None:
            report.join = {
                **(report.join or {}),
                "ordering": join_decision.as_dict(),
            }
        ran = program.execute(report, inputs, records, config)
        if use_feedback:
            unwritten = observations.record(
                harvest_observation(
                    fragment_key, dataset_key, report, ran.metrics, records=records
                )
            )
            if unwritten is not None:
                report.diagnostics.append(make_diagnostic("REP311", unwritten))
        return ran

    def plan_execution(
        self,
        options: ExecOptions,
        program: GeneratedProgram,
        records: Any,
        head: list,
        globals_env: dict[str, Any],
        inputs: Optional[dict[str, Any]] = None,
        observation: Optional[Any] = None,
        observation_note: Optional[str] = None,
        estimates: Optional[Any] = None,
        config: Optional[EngineConfig] = None,
    ) -> tuple[ExecutionPlan, PlanReport]:
        """Fold ``options`` into the plan for one run of ``program``:
        a forced backend pins it (no plan: :data:`DEFAULT_BACKEND`),
        ``"auto"`` asks the planner (``head``:
        :meth:`sample_head` of ``records``; ``estimates``: what the
        monitor already sampled for ``program``, so the planner does
        not sample again; ``config``: the session's engine
        configuration, which prices the planner's cluster ranking)."""
        plan = options.effective_plan or DEFAULT_BACKEND
        if plan != "auto":
            report = forced_report(
                plan, options.memory_budget, _record_count(records)
            )
            # Forced *local* runs of a join pipeline still record the
            # physical-join choice (the same deterministic size rule the
            # codegen default applies), so the evidence trail is complete.
            if (
                inputs is not None
                and report.plan.backend in ("sequential", "multiprocess")
                and program.has_join
            ):
                from dataclasses import replace

                from .joins import resolve_join_strategies

                decisions = resolve_join_strategies(
                    program, inputs, memory_budget=options.memory_budget
                )
                report.plan = replace(
                    report.plan, join_strategies=tuple(d.strategy for d in decisions)
                )
                report.join = {"levels": [d.as_dict() for d in decisions]}
                report.diagnostics.extend(d.diagnostic() for d in decisions)
            return report.plan, report
        return self.ensure_planner().plan(
            program,
            records,
            head,
            globals_env,
            options=options,
            inputs=inputs,
            observation=observation,
            observation_note=observation_note,
            estimates=estimates,
            config=config,
        )

    def unproved_diagnostic(self, index: int) -> Optional[Diagnostic]:
        """The ``REP310`` of a job that dispatches ``impl_<index>``, or
        None when that implementation is proved."""
        proof = self.programs[index].proof
        if proof.status == "proved":
            return None
        return make_diagnostic(
            "REP310",
            f"impl_{index} ran on bounded (Tier-2) evidence only "
            f"({proof.reason}); checked on "
            f"{proof.domain or 'an unrecorded state domain'}",
            fragment=self.analysis.fragment.id,
        )

    def ensure_planner(self) -> ExecutionPlanner:
        """The program's execution planner, built with its compile-time
        pickle probe of the payload on the first ask — the one place a
        planner is constructed."""
        if self.planner is None:
            self.planner = ExecutionPlanner()
            self.planner.precompute(self.programs)
        return self.planner

    def _observation_key(self) -> str:
        if self._fragment_key is None:
            summary = self.programs[0].summary if self.programs else None
            self._fragment_key = fragment_observation_key(
                self.analysis, summary
            )
        return self._fragment_key

    # ------------------------------------------------------------------

    def sample_head(self, records: Any) -> list:
        """The first :data:`SAMPLE_RECORDS` raw records — what the
        compiled samplers read (a streaming source is only peeked)."""
        from ..engine.source import Dataset

        if isinstance(records, Dataset):
            return records.head(SAMPLE_RECORDS)
        return records[:SAMPLE_RECORDS]

    def _globals(self, inputs: dict[str, Any]) -> dict[str, Any]:
        from .base import prepare_globals

        globals_env, _sizes = prepare_globals(self.analysis, inputs)
        return globals_env


def build_adaptive_program(
    analysis: FragmentAnalysis,
    verified: list[VerifiedSummary],
) -> AdaptiveProgram:
    """Assemble the adaptive program from verified summaries.

    Statically-dominated summaries are pruned first (section 5.2): a
    summary is dropped when another is cheaper for every possible data
    distribution.  Each summary is costed once, by its
    :class:`GeneratedProgram` (``program.cost``).
    """
    programs = [
        GeneratedProgram(analysis=analysis, summary=vs.summary, proof=vs.proof)
        for vs in verified
    ]
    survivors = CostModel.prune_dominated(
        [(program, program.cost) for program in programs]
    )
    return AdaptiveProgram(
        analysis=analysis, programs=[program for program, _cost in survivors]
    )


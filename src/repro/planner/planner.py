"""Cost-driven execution planning (extends the paper's §5 machinery).

Casper's cost model and runtime monitor originally only *rank candidate
summaries*; this module uses the same signals — symbolic per-record
costs, first-k sample estimates of emit probabilities and distinct-key
ratios — to decide *how to execute* a compiled job:

* **backend** — in-process sequential, the real multiprocess pool, or a
  simulated cluster framework forced by the caller.  The
  sequential-vs-multiprocess choice is a *price*, never a measurement:
  operator nodes per record counted over the pipeline IR at compile time,
  weighted by the sampled share of records reaching each stage, times
  the module's seconds-per-op constants, against the pool's start-up and
  the bytes it has to ship (:func:`price_backends`).  The same job on
  the same data on the same CPU count gets the same plan; nothing under
  ``planner/`` or ``cost/`` reads a clock.
* **partition count** — mirrors the simulated engines' block
  partitioning when a combining reduce is present (so map-side combine
  groups records identically and results stay byte-for-byte equal), and
  otherwise scales with the worker count.
* **combiner on/off per reduce stage** — combining requires the λr
  commutativity+associativity proof, and is turned off when the sampled
  distinct-key ratio says map-side combining would not shrink the
  shuffle.

Every decision is recorded in the plan's ``reasons`` trail, and the
:class:`~repro.planner.plan.PlanReport` also ranks the simulated cluster
frameworks for the job, preserving the paper's backend-diversity story.

The planner keeps no copy of an implementation's static pricing: the
backend price reads ``GeneratedProgram.stage_rows`` and the cluster
ranking ``GeneratedProgram.cost``, each computed once per
implementation.  Its only compile-time state is the payload pickle
probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..cost.model import CostExpr, CostTerm
from ..cost.monitor import SampleEstimates
from ..diagnostics import make as make_diagnostic
from ..diagnostics.pickling import probe_payload, static_unpicklable_reason
from ..engine.config import PROFILES, EngineConfig
from ..engine.multiprocess import default_process_count
from ..engine.sizes import dataset_bytes
from ..engine.source import Dataset, ListSource
from ..ir.nodes import MapStage, Pipeline, ReduceStage, expr_size
from ..options import ExecOptions
from .plan import ExecutionPlan, PlanReport, StagePlan

if TYPE_CHECKING:
    from ..codegen.base import GeneratedProgram


def _relative_error(
    static: Optional[float], observed: Optional[float]
) -> Optional[float]:
    """|static − observed| / |observed|, when both sides exist."""
    if static is None or observed is None or not observed:
        return None
    return round(abs(static - observed) / abs(observed), 4)


def estimate_input_bytes(records: Any) -> Optional[int]:
    """Sizeof-sample byte estimate of a record collection (§5 model).

    ``records`` is a list or a :class:`~repro.engine.source.Dataset`
    (``None`` for a stream of unknown length).  The planner's own
    spill-decision estimator, exposed so the serve layer's admission
    controller prices jobs with exactly the §5 byte counts it uses.
    """
    if not isinstance(records, Dataset):
        records = ListSource(records)
    return records.estimated_bytes()


#: What the pool-or-sequential price is made of.  Fitted once on a
#: scratch run over the 70 suite programs on the 2-CPU reference host
#: (DESIGN.md, "Pricing the pool", has the procedure and a
#: predicted-vs-measured table) and never measured again — not at
#: import, not per ``Session``, not per plan.
#: Seconds one IR operator node costs one record on a compiled kernel.
COMPILED_OP_S = 0.40e-6
#: Seconds to move one estimated input byte to a worker: pickled by the
#: driver *and* unpickled by the worker.
SHIP_BYTE_S = 36e-9
#: Per-worker pool start-up (fork + import) in seconds.
POOL_STARTUP_S = 0.04
#: The pool must be predicted to win by this factor.
PARALLEL_MARGIN = 1.3
#: Distinct-key ratio from which map-side combining is pointless.
COMBINER_KEY_RATIO_CUTOFF = 0.95
#: Records the bounded first-chunk probe reads off an unknown-length
#: stream; one that ends within the bound is priced from its measured
#: exact length instead of "assume large".
PROBE_RECORDS = 4096
#: Records of the head sample behind the bytes-per-record estimate (the
#: 64 ``Dataset.estimated_bytes`` sizes).
BYTE_SAMPLE_RECORDS = 64


def stage_ops(pipeline: Pipeline) -> tuple[tuple, ...]:
    """``(stage index, kind, ops, reach)`` per stage of ``pipeline``.

    ``ops`` is the stage's operator-node count per record reaching it
    (the §4.2 expression-length feature the engines already charge as
    ``complexity``); ``reach`` says how many records do, as a
    :class:`~repro.cost.model.CostExpr` over the sampled unknowns — the
    §5.1 record-count expression: a conditional emit multiplies by its
    ``p``, a reduce leaves one pair per distinct key (``k``).  A join
    charges one probe per pair plus the right relation's own map, and
    passes the count through (Eqn 4's ``p_j`` is a share of N₁·N₂).
    """
    from ..codegen.base import _stage_complexity

    rows = []
    reach: list[tuple[str, ...]] = [()]
    for index, stage in enumerate(pipeline.stages):
        reaching = CostExpr([CostTerm(1.0, symbols) for symbols in reach])
        if isinstance(stage, MapStage):
            rows.append((index, "map", _stage_complexity(stage), reaching))
            reach = [
                symbols + ((f"p_s{index}_{position}",) if emit.cond is not None else ())
                for position, emit in enumerate(stage.lam.emits)
                for symbols in reach
            ]
        elif isinstance(stage, ReduceStage):
            ops = max(1, expr_size(stage.lam.body))
            rows.append((index, "reduce", ops, reaching))
            reach = [(f"k_s{index}",)]
        else:
            ops = 1 + sum(row[2] for row in stage_ops(stage.right))
            rows.append((index, "join", ops, reaching))
    return tuple(rows)


def price_backends(
    stages: list[dict],
    n: Optional[int],
    bytes_per_record: float,
    processes: int,
) -> dict[str, float]:
    """Predicted seconds of one job on each real local backend.

    A pure function of its arguments and the module constants — the
    whole pool-or-sequential decision.  ``stages`` are the priced rows
    (``ops`` and ``reach`` each; every stage runs a compiled kernel);
    ``n`` None is the unknown-length stream, answered in seconds *per
    record* as n → ∞: start-up amortises away and only the per-record
    terms are left to compare.
    """
    work = sum(row["ops"] * row["reach"] * COMPILED_OP_S for row in stages)
    records = 1 if n is None else n
    startup = 0.0 if n is None else POOL_STARTUP_S * processes
    return {
        "sequential": work * records,
        "multiprocess": (work / processes + bytes_per_record * SHIP_BYTE_S) * records
        + startup,
    }


@dataclass
class ExecutionPlanner:
    """Chooses an :class:`ExecutionPlan` for one compiled fragment.

    Built by :meth:`AdaptiveProgram.ensure_planner` (the pipeline's
    ``plan`` pass asks at compile time); the static part — payload
    picklability of the summary itself — is probed once then, while
    :meth:`plan` finalizes the data-dependent decisions per run.  Each
    implementation's cost expression and stage rows are its own
    (``GeneratedProgram.cost`` / ``.stage_rows``).
    """

    #: Compile-time probe: is the summary/view payload picklable at all?
    static_unpicklable: Optional[str] = None
    #: The static pickle walker cleared the payload but the runtime
    #: ``pickle.dumps`` backstop rejected it (a REP307 disagreement).
    probe_disagreement: bool = False

    # ------------------------------------------------------------------
    # Compile-time half

    def precompute(self, programs: list["GeneratedProgram"]) -> None:
        """Static analysis at compile time (the pipeline's plan pass)."""
        if programs:
            verdict = probe_payload(
                (programs[0].summary, programs[0].analysis.view)
            )
            if verdict.unpicklable:
                self.static_unpicklable = verdict.reason
            self.probe_disagreement = verdict.disagreement

    # ------------------------------------------------------------------
    # Run-time half

    def plan(
        self,
        program: "GeneratedProgram",
        records: Any,
        head: list,
        globals_env: dict[str, Any],
        options: Optional[ExecOptions] = None,
        inputs: Optional[dict[str, Any]] = None,
        observation: Optional[Any] = None,
        observation_note: Optional[str] = None,
        estimates: Optional[SampleEstimates] = None,
    ) -> tuple["ExecutionPlan", "PlanReport"]:
        """Decide how to execute ``program`` over ``records``.

        ``records`` is a list or a :class:`~repro.engine.source.Dataset`
        (whose length may be unknown — a stream the bounded probe cannot
        see the end of spills under a budget and is priced per record).
        ``options`` is the caller's :class:`~repro.options.ExecOptions`;
        its physical knobs are folded into the returned plan.  With a
        ``memory_budget`` in play the planner
        weighs the cost model's input-size estimate against it and
        chooses the external spill shuffle when the data cannot fit.

        ``inputs`` (the fragment's full input environment) enables the
        physical-join decision for join pipelines: each join level runs
        map-side broadcast iff the small side's sizeof-sample estimate
        fits the memory budget (or the default broadcast threshold),
        and reduce-side through the tagged-union shuffle otherwise —
        recorded per level in the plan and the report.

        ``observation`` is a stored
        :class:`~repro.cost.observe.Observation` of this exact
        (fragment, dataset) pair from an earlier run; when given it
        resolves estimates the sample cannot see — exact input length
        and bytes, measured distinct-key ratios, observed join
        selectivity and small-side sizes — and the report's
        ``estimates`` trail records the provenance of each quantity
        (static vs observed, with the static estimate's error against
        the measurement).  ``observation_note`` is the loud-fallback
        reason when a stored observation *exists but could not load*
        (corruption, schema mismatch): it goes into the trail so the
        fallback to static estimates is never silent.

        ``head`` is the first-k raw records of ``records`` (what
        ``program``'s compiled sampler reads) and ``estimates`` the
        runtime monitor's :class:`~repro.cost.monitor.SampleEstimates`
        of this program over that very head; the planner takes it as its
        own unless it holds right-side join samples the monitor never
        saw, which carry the estimate through the join stages.
        """
        options = options or ExecOptions()
        reasons: list[str] = []
        provenance: dict[str, dict] = {}
        if observation_note:
            provenance["fallback"] = {
                "source": "static",
                "note": observation_note,
            }
            reasons.append(f"{observation_note} — static estimates in effect")
        n: Optional[int] = (
            records.known_length
            if isinstance(records, Dataset)
            else len(records)
        )
        if n is None and isinstance(records, Dataset):
            # Bounded first-chunk probe: a stream that ends within the
            # bound has a *measured* exact length — price it instead of
            # pessimistically assuming a large input (which would force
            # the spill shuffle on tiny generators).
            probe = records.probe(PROBE_RECORDS)
            if probe.exhausted:
                n = probe.records
                provenance["input_records"] = {
                    "used": n,
                    "source": "observed",
                    "note": (
                        f"stream probe exhausted the source at {n} records "
                        f"(~{probe.bytes} B measured)"
                    ),
                }
                reasons.append(
                    f"stream probe: source ended at {n} records "
                    f"(~{probe.bytes} B) — planning from the measured "
                    "sample, not 'assume large'"
                )
        static_n = n
        if n is None and observation is not None:
            obs_n = getattr(observation, "input_records", None)
            if obs_n is not None:
                n = obs_n
                provenance["input_records"] = {
                    "used": n,
                    "source": "observed",
                    "note": f"length {n} resolved from last run's observation",
                }
                reasons.append(
                    f"input length {n} resolved from the stored observation "
                    "of the last run"
                )
        elif observation is not None and getattr(
            observation, "input_records", None
        ) is not None:
            provenance.setdefault(
                "input_records",
                {
                    "used": n,
                    "source": "static",
                    "observed": observation.input_records,
                    "static_error": _relative_error(
                        static_n, observation.input_records
                    ),
                },
            )
        processes = default_process_count()
        right_samples = self._right_samples(program, inputs)
        sampler_fallbacks: list = []
        if (
            estimates is None
            or right_samples is not None
            or estimates.sample_size != len(head)
        ):
            estimates = program.sample_estimates(head, globals_env, right_samples)
            sampler_fallbacks = estimates.diagnostics
        stages = self._stage_plans(
            program, estimates, reasons, observation=observation,
            provenance=provenance,
        )
        backend, estimated = self._backend_decision(
            program, head, n, estimates, processes, reasons, provenance
        )
        budget = options.memory_budget
        spill, est_bytes = self._spill_decision(
            records, budget, reasons,
            observation=observation, provenance=provenance,
        )
        join_strategies, join_report, broadcast_limit = self._join_decision(
            program, inputs, budget, reasons,
            observation=observation, provenance=provenance,
        )
        partitions = self._partitions(program, stages, processes, reasons)
        plan = ExecutionPlan(
            backend=backend,
            processes=0 if backend == "sequential" else processes,
            partitions=partitions,
            stages=tuple(stages),
            memory_budget=budget if spill else None,
            spill=spill,
            join_strategies=join_strategies,
            broadcast_limit=broadcast_limit,
            reasons=tuple(reasons),
        )
        cluster = self._cluster_ranking(
            program, estimates.as_dict(), n or 0, program.engine_config
        )
        if observation is not None and getattr(
            observation, "wall_seconds", None
        ):
            # Error vs last run: how far the cost model's prediction for
            # the backend we are about to use was from reality.
            predicted = estimated.get(backend)
            provenance["wall_seconds"] = {
                "observed_last": observation.wall_seconds,
                "predicted": predicted,
                "prediction_error": _relative_error(
                    predicted, observation.wall_seconds
                ),
            }
        report = PlanReport(
            plan=plan,
            input_records=n or 0,
            estimated_seconds=estimated,
            cluster_seconds=cluster,
            cluster_recommendation=(
                min(cluster, key=cluster.get) if cluster else None
            ),
            estimated_input_bytes=est_bytes,
            join=join_report,
            estimates=provenance,
        )
        report.diagnostics.extend(sampler_fallbacks)
        if self.static_unpicklable is not None:
            report.diagnostics.append(
                make_diagnostic("REP306", self.static_unpicklable)
            )
        if self.probe_disagreement:
            report.probe_disagreements += 1
            report.diagnostics.append(
                make_diagnostic(
                    "REP307",
                    "static pickle analysis cleared the summary payload "
                    "but the runtime probe rejected it",
                )
            )
        return plan, report

    def _backend_decision(
        self,
        program: "GeneratedProgram",
        head: list,
        n: Optional[int],
        estimates: SampleEstimates,
        processes: int,
        reasons: list[str],
        provenance: dict[str, dict],
    ) -> tuple[str, dict[str, float]]:
        """Sequential or the pool, by :func:`price_backends`.

        ``provenance["backend"]`` receives every input of the choice —
        record count, the priced stage rows, bytes per record, worker
        count, the constants, both predictions — so the choice can be
        recomputed from the report alone.  Records the static pickle
        walker rejects price the pool out; it is only asked when the
        pool would otherwise be chosen.
        """
        if processes < 2:
            # Ahead of any pricing work: on one CPU the pool cannot win.
            reasons.append(
                f"only {processes} CPU(s) available — the pool cannot win, "
                "nothing priced"
            )
            provenance["backend"] = {"processes": processes, "chosen": "sequential"}
            return "sequential", {}
        known = estimates.as_dict()
        stages = [
            {"stage": index, "kind": kind, "ops": ops, "reach": reach.evaluate(known)}
            for index, kind, ops, reach in program.stage_rows
        ]
        sample = head[:BYTE_SAMPLE_RECORDS]
        bytes_per_record = dataset_bytes(sample) / len(sample) if sample else 0.0
        predicted = price_backends(stages, n, bytes_per_record, processes)
        seq_s, mp_s = predicted["sequential"], predicted["multiprocess"]
        unit = "s/record as n → ∞" if n is None else "s"
        reasons.append(
            f"predicted sequential {seq_s:.3g}{unit}, pool {mp_s:.3g}{unit} on "
            f"{processes} processes (the pool must win by {PARALLEL_MARGIN}×)"
        )
        backend = "sequential"
        unpicklable = self.static_unpicklable
        if unpicklable is not None:
            reasons.append(unpicklable)
        elif seq_s >= mp_s * PARALLEL_MARGIN:
            unpicklable = static_unpicklable_reason(sample)
            if unpicklable is None:
                backend = "multiprocess"
            else:
                reasons.append(f"pool priced out — input records: {unpicklable}")
        provenance["backend"] = {
            "processes": processes,
            "input_records": n,
            "stages": stages,
            "bytes_per_record": bytes_per_record,
            "constants": {
                "compiled_op_s": COMPILED_OP_S,
                "ship_byte_s": SHIP_BYTE_S,
                "pool_startup_s": POOL_STARTUP_S,
                "parallel_margin": PARALLEL_MARGIN,
            },
            "predicted": predicted,
            "unpicklable": unpicklable,
            "chosen": backend,
        }
        return backend, {} if n is None else predicted

    @staticmethod
    def _right_samples(
        program: "GeneratedProgram",
        inputs: Optional[dict[str, Any]],
        sample_records: int = 256,
    ) -> Optional[dict[str, list]]:
        """Bounded raw right-relation samples, by relation name, so the
        program's sampler prices through its join stages.  Returns None
        for non-join fragments.
        """
        from ..codegen.base import view_records

        join = getattr(program.analysis, "join", None)
        if join is None or inputs is None:
            return None
        samples: dict[str, list] = {}
        for side in join.sides:
            try:
                records = view_records(side.view, inputs)
            except Exception:
                continue
            samples[side.source] = records[:sample_records]
        return samples or None

    @staticmethod
    def _join_decision(
        program: "GeneratedProgram",
        inputs: Optional[dict[str, Any]],
        budget: Optional[int],
        reasons: list[str],
        observation: Optional[Any] = None,
        provenance: Optional[dict] = None,
    ) -> tuple[tuple[str, ...], Optional[dict], Optional[int]]:
        """Broadcast vs reduce-side per join level.

        The static rule is the size-estimate-vs-budget threshold of
        :func:`repro.codegen.joins.resolve_join_strategies`.  With a
        fresh observation the first level is *re-priced from measured
        reality*: when the last run of this exact (fragment, dataset)
        ran reduce-side and shuffled far more bytes than the small side
        occupies, holding the index resident is strictly cheaper than
        the shuffle it eliminates — the level is flipped to broadcast
        and the plan's ``broadcast_limit`` raised (with the observed
        size on record) so the engine's mid-job overflow guard prices
        against the justified limit, not the stale budget.
        """
        from ..codegen.joins import is_join_summary, resolve_join_strategies

        if inputs is None or not is_join_summary(program.summary):
            return (), None, None
        decisions = resolve_join_strategies(program, inputs, memory_budget=budget)
        broadcast_limit: Optional[int] = None
        obs_levels = list(getattr(observation, "join_levels", None) or [])
        if (
            decisions
            and decisions[0].strategy == "reduce_side"
            and obs_levels
            and obs_levels[0].get("right_bytes")
        ):
            observed_bytes = obs_levels[0]["right_bytes"]
            shuffled = sum(
                row.get("bytes_shuffled") or 0
                for row in getattr(observation, "stages", None) or []
            )
            if shuffled > observed_bytes:
                first = decisions[0]
                broadcast_limit = max(budget or 0, 2 * observed_bytes)
                decisions[0] = type(first)(
                    relation=first.relation,
                    strategy="broadcast",
                    right_records=first.right_records,
                    right_bytes=first.right_bytes,
                    limit=broadcast_limit,
                    reason=(
                        f"re-priced from observation: last run shuffled "
                        f"{shuffled} B reduce-side to join against a "
                        f"{observed_bytes} B side — holding the index "
                        f"resident is cheaper (broadcast limit raised to "
                        f"{broadcast_limit} B)"
                    ),
                )
                if provenance is not None:
                    provenance["join_strategy"] = {
                        "used": "broadcast",
                        "source": "observed",
                        "static": "reduce_side",
                        "observed_shuffled_bytes": shuffled,
                        "observed_right_bytes": observed_bytes,
                        "broadcast_limit": broadcast_limit,
                    }
        for decision in decisions:
            reasons.append(f"join {decision.relation}: {decision.reason}")
        return (
            tuple(d.strategy for d in decisions),
            {"levels": [d.as_dict() for d in decisions]},
            broadcast_limit,
        )

    def _spill_decision(
        self,
        records: Any,
        budget: Optional[int],
        reasons: list[str],
        observation: Optional[Any] = None,
        provenance: Optional[dict] = None,
    ) -> tuple[bool, Optional[int]]:
        """Spill vs in-memory, from the size estimates (§5 byte counts).

        Observed input bytes override the sizeof-sample estimate when an
        observation is fresh — the byte count then comes from the last
        measured run instead of a 64-record head sample.
        """
        if budget is None:
            return False, None
        static_bytes = estimate_input_bytes(records)
        est_bytes = static_bytes
        obs_bytes = getattr(observation, "input_bytes", None)
        if obs_bytes is not None:
            if provenance is not None:
                provenance["input_bytes"] = {
                    "used": obs_bytes,
                    "source": "observed",
                    "static": static_bytes,
                    "static_error": _relative_error(static_bytes, obs_bytes),
                }
            if static_bytes is None:
                reasons.append(
                    f"input bytes {obs_bytes} resolved from the stored "
                    "observation (sample had no length to extrapolate over)"
                )
            est_bytes = obs_bytes
        elif provenance is not None and static_bytes is not None:
            provenance.setdefault(
                "input_bytes", {"used": static_bytes, "source": "static"}
            )
        if est_bytes is None:
            reasons.append(
                f"unknown-length source with memory budget {budget} B — "
                "streaming with the external spill shuffle"
            )
            return True, None
        if est_bytes > budget:
            reasons.append(
                f"estimated input {est_bytes} B exceeds memory budget "
                f"{budget} B — external spill shuffle keeps residency "
                "O(budget)"
            )
            return True, est_bytes
        reasons.append(
            f"estimated input {est_bytes} B fits memory budget {budget} B "
            "— in-memory shuffle"
        )
        return False, est_bytes

    # ------------------------------------------------------------------

    def _stage_plans(
        self,
        program,
        estimates,
        reasons: list[str],
        observation: Optional[Any] = None,
        provenance: Optional[dict] = None,
    ):
        plans = []
        prefix = "s"
        proof_ok = program.proof.is_commutative and program.proof.is_associative
        reduce_indexes = [
            index
            for index, stage in enumerate(program.summary.pipeline.stages)
            if isinstance(stage, ReduceStage)
        ]
        for index, stage in enumerate(program.summary.pipeline.stages):
            if isinstance(stage, MapStage):
                plans.append(StagePlan(index=index, kind="map"))
            elif isinstance(stage, ReduceStage):
                combiner = proof_ok
                if not proof_ok:
                    reasons.append(
                        f"stage {index}: combiner off (λr not proven "
                        "commutative+associative)"
                    )
                else:
                    ratio = estimates.key_ratios.get(f"k_{prefix}{index}")
                    source = "static"
                    observed = self._observed_key_ratio(
                        observation, index, len(reduce_indexes)
                    )
                    if observed is not None:
                        if provenance is not None:
                            provenance[f"key_ratio_stage{index}"] = {
                                "used": observed,
                                "source": "observed",
                                "static": ratio,
                                "static_error": _relative_error(ratio, observed),
                            }
                        ratio = observed
                        source = "observed"
                    if (
                        ratio is not None
                        and ratio >= COMBINER_KEY_RATIO_CUTOFF
                    ):
                        combiner = False
                        reasons.append(
                            f"stage {index}: combiner off ({source} "
                            f"distinct-key ratio {ratio:.2f} — combining "
                            "cannot shrink the shuffle)"
                        )
                plans.append(StagePlan(index=index, kind="reduce", combiner=combiner))
        return plans

    @staticmethod
    def _observed_key_ratio(
        observation: Optional[Any], stage_index: int, reduce_stages: int
    ) -> Optional[float]:
        """The measured distinct-key ratio for a reduce stage, if stored.

        Shuffle stages are named by *step* index in the metrics; for the
        single-reduce pipelines that dominate the workloads the sole
        observed shuffle ratio is unambiguous, otherwise an exact
        step-name match is required.
        """
        ratios = getattr(observation, "key_ratios", None)
        if not ratios:
            return None
        exact = ratios.get(f"shuffle.reduce.{stage_index}")
        if exact is not None:
            return exact
        if reduce_stages == 1 and len(ratios) == 1:
            return next(iter(ratios.values()))
        return None

    def _partitions(
        self, program, stages, processes: int, reasons: list[str]
    ) -> Optional[int]:
        default = program.engine_config.default_partitions
        combining = any(s.kind == "reduce" and s.combiner for s in stages)
        if combining:
            reasons.append(
                f"partitions={default} (engine default, so map-side combine "
                "groups records exactly like the simulated engines)"
            )
            return None  # engine default
        partitions = min(default, max(8, 4 * max(1, processes)))
        reasons.append(
            f"partitions={partitions} (no combining reduce — scaled to "
            f"{processes} workers)"
        )
        return partitions

    def _cluster_ranking(
        self,
        program,
        estimates: dict[str, float],
        n: int,
        engine_config: EngineConfig,
    ) -> dict[str, float]:
        """Rank the simulated cluster frameworks for this job.

        Startup + per-stage overheads come from the framework profiles;
        the data-movement term plugs the sampled estimates into the §5.1
        cost expression (per-record bytes) and pushes them through the
        cluster's network model.  Heuristic, but it reproduces the
        paper's ordering (Spark ≤ Flink ≤ Hadoop for multi-stage jobs).
        """
        n_stages = len(program.summary.pipeline.stages)
        bytes_per_record = program.cost.evaluate(estimates)
        moved = bytes_per_record * n * engine_config.scale
        cluster = engine_config.cluster
        ranking = {}
        for name in ("spark", "hadoop", "flink"):
            profile = PROFILES[name]
            seconds = profile.startup_s + n_stages * profile.per_stage_overhead_s
            seconds += moved / cluster.network_bw
            if profile.materialize_between_stages:
                seconds += 2 * moved / (cluster.worker_disk_bw * cluster.workers)
            ranking[name] = seconds
        return ranking

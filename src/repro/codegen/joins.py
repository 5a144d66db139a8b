"""Physical join execution: reduce-side and broadcast strategies.

A verified join summary (``map ⋈ [map ⋈]* map reduce?``) compiles to two
physical plans over the real local engines, mirroring the classic
MapReduce join playbook:

* **Reduce-side hash join** — the two relations enter the engine as one
  *tagged union* record stream; a tagged mapper keys each record and
  tags its value with the side it came from; the engine's shuffle
  groups both sides' values per key (the :class:`JoinFold` accumulator
  concatenates tagged values into per-side tuples — associative, and
  order-preserving under the engine's in-order fold guarantee, so
  results are identical on the sequential, pooled, and spill-to-disk
  paths); a :class:`JoinExpand` map then emits the per-key cross
  product.  Scales past memory: the tagged shuffle spills like any
  other.

* **Broadcast (map-side) join** — the small relation is keyed and
  *materialized into a hash index* on the driver; a
  :class:`BroadcastLookup` map stage probes it per left pair.  No
  shuffle for the join at all, and the output order is exactly the
  nested loop's left-major order — but the index must fit in memory,
  which is why the planner only picks it when the small side's
  sizeof-sample estimate fits the memory budget.

Strategy selection lives in :func:`resolve_join_strategies`: broadcast
iff the right side's estimated bytes fit the budget (the run's
``memory_budget`` when one is set, else a Spark-style default
auto-broadcast threshold).  Joins after the first level always
broadcast — their left input is the in-flight pair stream, which cannot
be re-entered into a tagged shuffle without re-scanning (recorded in the
decision trail as a documented limitation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..engine.multiprocess import MapStep, PipelineStep, ReduceStep
from ..engine.sizes import sizeof_pair
from ..engine.source import Dataset, ListSource
from ..errors import CodegenError
from ..ir.nodes import JoinStage, MapStage, ReduceStage, is_join_summary

if TYPE_CHECKING:
    from ..planner.plan import ExecutionPlan
    from .base import GeneratedProgram

__all__ = [
    "DEFAULT_BROADCAST_BYTES",
    "BroadcastLookup",
    "JoinExpand",
    "JoinFold",
    "JoinLevelDecision",
    "TaggedJoinMapper",
    "build_join_steps",
    "is_join_summary",
    "resolve_join_strategies",
]

#: Default broadcast threshold when no memory budget binds — the same
#: order of magnitude as Spark's ``autoBroadcastJoinThreshold``.
DEFAULT_BROADCAST_BYTES = 8 << 20

#: Sentinel tag of a reduce-side join accumulator value.
_ACC_TAG = "⋈acc"


@dataclass
class TaggedJoinMapper:
    """First map over the tagged union stream: ``(tag, record) → pairs``.

    Tag 0 records run the left relation's keyed emit, tag 1 the right
    relation's; emitted values carry the tag so the shuffle can keep the
    sides apart inside one key group.  Module-level and picklable, like
    every other engine callable.
    """

    left: Any  # the left relation's compiled record mapper
    right: Any  # the right relation's

    def __call__(self, tagged: tuple) -> list[tuple]:
        tag, record = tagged
        mapper = self.left if tag == 0 else self.right
        return [(key, (tag, value)) for key, value in mapper(record)]


@dataclass
class JoinFold:
    """Associative fold merging tagged values into (lefts, rights).

    Values are ``(0, v)`` / ``(1, v)`` tagged pairs or an accumulator
    ``(_ACC_TAG, lefts, rights)``; merging concatenates per side.
    Concatenation is associative and the engine folds values in arrival
    order on every path (in-memory, pooled, spilled), so the per-key
    left/right orders — and therefore the expanded cross product — are
    identical everywhere.
    """

    @staticmethod
    def to_acc(value: Any) -> tuple:
        if (
            isinstance(value, tuple)
            and len(value) == 3
            and value[0] == _ACC_TAG
        ):
            return value
        tag, inner = value
        if tag == 0:
            return (_ACC_TAG, (inner,), ())
        return (_ACC_TAG, (), (inner,))

    def __call__(self, a: Any, b: Any) -> tuple:
        left = self.to_acc(a)
        right = self.to_acc(b)
        return (_ACC_TAG, left[1] + right[1], left[2] + right[2])


@dataclass
class JoinExpand:
    """Per-key cross product: ``(k, acc) → [(k, (lv, rv)), ...]``."""

    def __call__(self, pair: tuple) -> list[tuple]:
        key, value = pair
        acc = JoinFold.to_acc(value)
        return [(key, (lv, rv)) for lv in acc[1] for rv in acc[2]]


@dataclass
class BroadcastLookup:
    """Map-side probe of a broadcast hash index: ``(k, v) → joined``."""

    index: dict

    def __call__(self, pair: tuple) -> list[tuple]:
        key, value = pair
        return [(key, (value, rv)) for rv in self.index.get(key, ())]


# ----------------------------------------------------------------------
# Strategy selection


@dataclass
class JoinLevelDecision:
    """One join level's physical choice, for the plan evidence trail."""

    relation: str
    strategy: str  # "broadcast" | "reduce_side"
    right_records: int
    right_bytes: int
    limit: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "relation": self.relation,
            "strategy": self.strategy,
            "right_records": self.right_records,
            "right_bytes": self.right_bytes,
            "limit": self.limit,
            "reason": self.reason,
        }


def _reject_streaming(join, inputs: dict[str, Any]) -> None:
    """Joins need a second pass over each relation — lists only."""
    for side in join.sides:
        if isinstance(inputs.get(side.source), Dataset):
            raise CodegenError(
                f"join relation {side.source!r} is a streaming Dataset — "
                "join inputs must be materialized lists"
            )


def resolve_join_strategies(
    program: "GeneratedProgram",
    inputs: dict[str, Any],
    memory_budget: Optional[int] = None,
) -> list[JoinLevelDecision]:
    """Choose broadcast vs reduce-side per join level from size estimates.

    The rule is deterministic in the inputs and the budget, so a planned
    run and a default run over the same data make the same choice —
    which keeps spilled-vs-in-memory identity comparisons exact.
    """
    from .base import view_records

    join = program.analysis.join
    if join is None:
        raise CodegenError("resolve_join_strategies needs a join fragment")
    _reject_streaming(join, inputs)
    limit = memory_budget if memory_budget is not None else DEFAULT_BROADCAST_BYTES
    decisions: list[JoinLevelDecision] = []
    level_index = 0
    for stage in program.summary.pipeline.stages:
        if not isinstance(stage, JoinStage):
            continue
        side = join.side_for(stage.right.source)
        records = view_records(side.view, inputs)
        right_bytes = ListSource(records).estimated_bytes()
        if level_index > 0:
            strategy = "broadcast"
            reason = (
                "joins after the first level broadcast: their left input "
                "is the in-flight pair stream"
            )
        elif right_bytes <= limit:
            strategy = "broadcast"
            reason = (
                f"small side ~{right_bytes} B fits the "
                f"{'memory budget' if memory_budget is not None else 'broadcast threshold'}"
                f" ({limit} B) — map-side hash index"
            )
        else:
            strategy = "reduce_side"
            reason = (
                f"small side ~{right_bytes} B exceeds the "
                f"{'memory budget' if memory_budget is not None else 'broadcast threshold'}"
                f" ({limit} B) — tagged-union shuffle join"
            )
        decisions.append(
            JoinLevelDecision(
                relation=side.source,
                strategy=strategy,
                right_records=len(records),
                right_bytes=right_bytes,
                limit=limit,
                reason=reason,
            )
        )
        level_index += 1
    return decisions


# ----------------------------------------------------------------------
# Step-list construction for the real local engines


def build_join_steps(
    program: "GeneratedProgram",
    globals_env: dict[str, Any],
    inputs: dict[str, Any],
    plan: Optional["ExecutionPlan"] = None,
    left_records: Optional[list] = None,
) -> tuple[list, list[PipelineStep], list[JoinLevelDecision], list[dict]]:
    """(records, steps, decisions, adaptations) realizing a join summary.

    ``records`` is what the engine scans: the left relation's records
    for an all-broadcast plan, or the tagged union of left + first right
    relation when level 1 runs reduce-side.  Streaming ``Dataset``
    inputs are rejected — joins need a second pass over the small side
    to build the index (or a second tagged scan), so both relations must
    be materialized lists.

    ``adaptations`` records mid-job strategy switches: a level-0
    broadcast build whose index outgrows the plan's broadcast limit (or
    the memory budget) is discarded and the level re-built reduce-side —
    the "small" side turned out not to be small, and spilling the whole
    index through memory it was promised not to use would be worse than
    the shuffle.  The switch is taken *before* the engine starts (the
    index is built driver-side), so results are byte-identical to a
    reduce-side plan; it is surfaced in ``PlanReport.adaptations``,
    never silently.
    """
    from .base import (
        RecordMapper,
        _compiled,
        _pair_emit_fn,
        _stage_complexity,
        view_records,
    )

    join = program.analysis.join
    if join is None:
        raise CodegenError("build_join_steps needs a join fragment")
    _reject_streaming(join, inputs)

    if plan is not None and plan.join_strategies:
        strategies = list(plan.join_strategies)
        decisions: list[JoinLevelDecision] = []
    else:
        decisions = resolve_join_strategies(
            program,
            inputs,
            memory_budget=plan.memory_budget if plan is not None else None,
        )
        strategies = [d.strategy for d in decisions]

    stages = program.summary.pipeline.stages
    first = stages[0]
    assert isinstance(first, MapStage)
    left_view = join.base.view
    if left_records is None:
        left_records = view_records(left_view, inputs)
    left_mapper = _compiled(
        RecordMapper(emits=first.lam.emits, globals_env=globals_env, view=left_view)
    )

    # The level-0 broadcast build is guarded: the index grows under a
    # byte limit (the plan's observed-justified broadcast limit, else
    # the memory budget, else the default threshold), and overflowing it
    # triggers the mid-job switch to reduce-side.
    if plan is not None:
        guard_limit = (
            plan.broadcast_limit
            if plan.broadcast_limit is not None
            else (
                plan.memory_budget
                if plan.memory_budget is not None
                else DEFAULT_BROADCAST_BYTES
            )
        )
    else:
        guard_limit = DEFAULT_BROADCAST_BYTES

    records: list = left_records
    steps: list[PipelineStep] = []
    adaptations: list[dict] = []
    level_index = 0
    pending_left = MapStep(left_mapper, _stage_complexity(first))
    for stage_index, stage in enumerate(stages[1:], start=1):
        if isinstance(stage, JoinStage):
            side = join.side_for(stage.right.source)
            right_stage = stage.right.stages[0]
            assert isinstance(right_stage, MapStage)
            right_mapper = _compiled(
                RecordMapper(
                    emits=right_stage.lam.emits,
                    globals_env=globals_env,
                    view=side.view,
                )
            )
            strategy = (
                strategies[level_index]
                if level_index < len(strategies)
                else "broadcast"
            )

            def reduce_side_level0() -> list:
                right_records = view_records(side.view, inputs)
                steps.append(
                    MapStep(
                        TaggedJoinMapper(left=left_mapper, right=right_mapper),
                        _stage_complexity(first),
                    )
                )
                steps.append(ReduceStep(JoinFold(), combine=True))
                steps.append(MapStep(JoinExpand(), complexity=1))
                return [(0, r) for r in left_records] + [
                    (1, r) for r in right_records
                ]

            if strategy == "reduce_side" and level_index == 0:
                records = reduce_side_level0()
                pending_left = None
            else:
                # Build the broadcast index under the guard.  The switch
                # is only possible at level 0 while the left map is still
                # pending — later levels probe the in-flight pair stream,
                # which cannot re-enter a tagged shuffle.
                switchable = level_index == 0 and pending_left is not None
                index: dict[Any, list] = {}
                index_bytes = 0
                overflowed = False
                for record in view_records(side.view, inputs):
                    for key, value in right_mapper(record):
                        index.setdefault(key, []).append(value)
                        if switchable:
                            index_bytes += sizeof_pair(key, value)
                            if index_bytes > guard_limit:
                                overflowed = True
                                break
                    if overflowed:
                        break
                if overflowed:
                    del index
                    adaptations.append(
                        {
                            "kind": "broadcast_overflow",
                            "relation": side.source,
                            "observed_bytes": index_bytes,
                            "limit": guard_limit,
                            "switched_to": "reduce_side",
                            "note": (
                                f"broadcast build of {side.source!r} "
                                f"overflowed {guard_limit} B at "
                                f"{index_bytes} B — switched to the "
                                "reduce-side tagged shuffle mid-job"
                            ),
                        }
                    )
                    records = reduce_side_level0()
                    pending_left = None
                    if level_index < len(decisions):
                        first_decision = decisions[level_index]
                        decisions[level_index] = JoinLevelDecision(
                            relation=first_decision.relation,
                            strategy="reduce_side",
                            right_records=first_decision.right_records,
                            right_bytes=max(
                                first_decision.right_bytes, index_bytes
                            ),
                            limit=guard_limit,
                            reason=adaptations[-1]["note"],
                        )
                    else:
                        # Pinned-plan path: the plan carried strategies
                        # without decisions, so record the switch fresh.
                        decisions.append(
                            JoinLevelDecision(
                                relation=side.source,
                                strategy="reduce_side",
                                # The build stopped at the overflow, so
                                # only the byte high-water mark is known.
                                right_records=0,
                                right_bytes=index_bytes,
                                limit=guard_limit,
                                reason=adaptations[-1]["note"],
                            )
                        )
                else:
                    if pending_left is not None:
                        steps.append(pending_left)
                        pending_left = None
                    steps.append(MapStep(BroadcastLookup(index), complexity=2))
            level_index += 1
        elif isinstance(stage, MapStage):
            if pending_left is not None:
                steps.append(pending_left)
                pending_left = None
            steps.append(
                MapStep(
                    _compiled(_pair_emit_fn(stage, globals_env)),
                    _stage_complexity(stage),
                )
            )
        elif isinstance(stage, ReduceStage):
            if pending_left is not None:
                steps.append(pending_left)
                pending_left = None
            combine = program._combiner_safe()
            if plan is not None:
                combine = combine and plan.combiner_for(stage_index)
            steps.append(
                ReduceStep(
                    _compiled(program._reduce_fn(stage, globals_env)), combine=combine
                )
            )
    if pending_left is not None:
        steps.append(pending_left)
    return records, steps, decisions, adaptations

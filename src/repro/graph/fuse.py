"""Job-graph fusion optimizer: stage fusion and dead-stage elimination.

Rewrites a :class:`~repro.graph.jobgraph.JobGraph` into an executable
:class:`GraphSchedule` of *units*.  A unit is either a single node (run
through its adaptive program exactly as a ``fragment_index`` job would) or a
:class:`FusedChain` — a producer→consumer pipeline whose intermediate
dataset is handed over inside one engine invocation instead of being
rebuilt into source-program variables and re-scanned (the §6.3 glue
round trip).  Three optimizations apply:

* **map→map fusion** — when the producer's translation is map-only and
  emits a bag that the consumer iterates (``filter → aggregate``
  chains), the handoff is a per-record bridge: producer map, bridge, and
  consumer map run as *one* fused map stage on worker processes, and the
  intermediate dataset is never materialized at all;
* **combiner hoisting** — when a fused chain ends in a combining
  reduce, the engine applies the consumer's combiner at the end of the
  fused map stage, i.e. map-side combining now reaches *across* the
  fragment boundary and shrinks the shuffle of the whole chain;
* **dead-stage elimination** — nodes from which no path reaches a
  required output are dropped (with the reason recorded) instead of
  executed.

Each rewrite is recorded on the schedule as one ``info`` diagnostic:
``REP407`` fused, ``REP408`` combiner hoisted, ``REP409`` implementation
pinned, ``REP410`` dead stage eliminated.

Fusion is deliberately conservative: a chain link requires the producer
to have exactly one output variable, consumed by exactly one node, as
that consumer's sole dataset-view source.  Everything else stays a
plain node and relies on concurrent branch scheduling instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..diagnostics import Diagnostic, make as make_diagnostic
from ..ir.nodes import JoinStage, MapStage, ReduceStage
from ..lang.analysis.liveness import stmt_uses
from .jobgraph import JobGraph, JobNode


@dataclass(frozen=True)
class FusedChain:
    """One executable unit: a maximal fusable producer→consumer chain.

    ``bridges[i]`` describes the handoff between ``node_ids[i]`` and
    ``node_ids[i+1]``: ``"map"`` for a per-record bridge (true map→map
    fusion, the intermediate never materializes) or ``"barrier"`` for a
    driver-side re-binding that still keeps the chain inside one engine
    invocation (no re-scan, no second job startup).  ``impl_indexes``
    pins each node's implementation choice — fused stages are assembled
    statically, so the runtime monitor cannot pick per-run.
    """

    node_ids: tuple[str, ...]
    bridges: tuple[str, ...] = ()
    impl_indexes: tuple[int, ...] = ()

    @property
    def head(self) -> str:
        return self.node_ids[0]

    @property
    def tail(self) -> str:
        return self.node_ids[-1]

    @property
    def fused(self) -> bool:
        return len(self.node_ids) > 1

    def describe(self) -> str:
        if not self.fused:
            return self.node_ids[0]
        parts = [self.node_ids[0]]
        for bridge, node_id in zip(self.bridges, self.node_ids[1:]):
            arrow = "=>" if bridge == "map" else "->"
            parts.append(f"{arrow} {node_id}")
        return " ".join(parts)


@dataclass
class GraphSchedule:
    """The optimizer's answer: units to run, and why.

    ``diagnostics`` holds the optimizer's decisions (``REP407``–
    ``REP410``) in the order they were made, then the executor's
    ``REP312`` per node a non-strict run skips.  ``fused_away`` lists
    intermediate variables that map→map fusion keeps entirely inside a
    fused stage — they are never materialized, so they do not appear in
    the program's outputs.
    """

    units: list[FusedChain] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    fused_away: frozenset[str] = frozenset()

    @property
    def fused_units(self) -> list[FusedChain]:
        return [u for u in self.units if u.fused]


def optimize_graph(
    graph: JobGraph,
    required_vars: Optional[set[str]] = None,
    fuse: bool = True,
) -> GraphSchedule:
    """Build the execution schedule for a job graph.

    ``required_vars`` enables dead-stage elimination: only nodes that
    (transitively) contribute to one of the named variables survive.
    ``None`` keeps every node — the default for a whole-program job,
    whose callers expect all program outputs.  ``fuse=False`` disables chain
    building (every unit is a single node), which is the baseline the
    fusion benchmarks compare against.
    """
    schedule = GraphSchedule()
    order = graph.topological_order()
    kept = _eliminate_dead(graph, order, required_vars, schedule)

    in_unit: set[str] = set()
    fused_away: set[str] = set()
    for node_id in order:
        if node_id not in kept or node_id in in_unit:
            continue
        node = graph.nodes[node_id]
        if not fuse or not node.translated:
            schedule.units.append(_singleton(node))
            in_unit.add(node_id)
            continue
        chain = [node_id]
        bridges: list[str] = []
        while True:
            bridge = _fusable_link(
                graph, chain[-1], kept, in_unit | set(chain), required_vars
            )
            if bridge is None:
                break
            kind, next_id, var = bridge
            bridges.append(kind)
            chain.append(next_id)
            if kind == "map":
                fused_away.add(var)
            how = (
                f"map→map fused on {var!r} (intermediate never materialized)"
                if kind == "map"
                else f"stage-fused on {var!r} (partitioned handoff, no re-scan)"
            )
            note = f"{chain[-2]} -> {next_id}: {how}"
            schedule.diagnostics.append(make_diagnostic("REP407", note))
        # Implementation pinning only applies to fused chains; a
        # single-node unit keeps its runtime monitor, which samples the
        # input per run and picks freely.
        impls = (
            tuple(_choose_impl(graph.nodes[n], schedule) for n in chain)
            if len(chain) > 1
            else (0,)
        )
        unit = FusedChain(
            node_ids=tuple(chain), bridges=tuple(bridges), impl_indexes=impls
        )
        if unit.fused:
            _note_combiner_hoist(graph, unit, schedule)
        schedule.units.append(unit)
        in_unit.update(chain)
    schedule.fused_away = frozenset(fused_away)
    return schedule


# ----------------------------------------------------------------------


def _singleton(node: JobNode) -> FusedChain:
    return FusedChain(node_ids=(node.id,), impl_indexes=(0,))


def _eliminate_dead(
    graph: JobGraph,
    order: list[str],
    required_vars: Optional[set[str]],
    schedule: GraphSchedule,
) -> set[str]:
    """Backward-prune nodes that cannot reach a required output."""
    if required_vars is None:
        return set(order)
    needed_vars = set(required_vars)
    kept: set[str] = set()
    for node_id in reversed(order):
        node = graph.nodes[node_id]
        feeds_kept = any(e.consumer in kept for e in graph.consumers_of(node_id))
        produces_required = bool(set(node.output_vars) & needed_vars)
        if feeds_kept or produces_required:
            kept.add(node_id)
        else:
            note = (
                f"{node_id}: eliminated (dead stage: outputs "
                f"{sorted(node.output_vars)} are not consumed and not required)"
            )
            schedule.diagnostics.append(make_diagnostic("REP410", note))
    return kept


def _fusable_link(
    graph: JobGraph,
    producer_id: str,
    kept: set[str],
    placed: set[str],
    required_vars: Optional[set[str]] = None,
) -> Optional[tuple[str, str, str]]:
    """``(bridge_kind, consumer_id, var)`` when the chain may extend."""
    producer = graph.nodes[producer_id]
    if producer.analysis is None or not producer.translated:
        return None
    if len(producer.output_vars) != 1:
        return None
    var = producer.output_vars[0]
    out_edges = graph.consumers_of(producer_id)
    if len(out_edges) != 1:
        return None
    edge = out_edges[0]
    if edge.var != var or edge.kind != "dataset":
        return None
    if edge.consumer not in kept or edge.consumer in placed:
        return None
    consumer = graph.nodes[edge.consumer]
    if not consumer.translated or consumer.analysis is None:
        return None
    if list(consumer.analysis.view.sources) != [var]:
        return None
    # The consumer's prelude runs at chain-assembly time, before the
    # intermediate exists; a prelude that reads it (e.g. ``double n =
    # kept.size();``) forces the unfused handoff.
    if any(
        var in stmt_uses(stmt)
        for stmt in consumer.analysis.fragment.prelude
    ):
        return None
    summary = producer.program.programs[_static_impl_index(producer)].summary
    if any(isinstance(s, JoinStage) for s in summary.pipeline.stages):
        # Join pipelines need their relation inputs at execution time
        # (broadcast indexes / tagged unions), which a spliced chain's
        # step list cannot provide — they always run as their own unit.
        return None
    bindings = summary.outputs
    map_only = all(isinstance(s, MapStage) for s in summary.pipeline.stages)
    bag_handoff = (
        len(bindings) == 1
        and bindings[0].kind == "whole"
        and bindings[0].container == "bag"
    )
    observable = var in graph.final_vars or (
        required_vars is not None and var in required_vars
    )
    if (
        map_only
        and bag_handoff
        and consumer.analysis.view.kind == "foreach"
        and not observable
    ):
        return ("map", edge.consumer, var)
    return ("barrier", edge.consumer, var)


def _static_impl_index(node: JobNode) -> int:
    """Statically pick the implementation for a chained node.

    The runtime monitor samples the input to choose between
    statically-incomparable implementations; a fused chain is assembled
    before its intermediate data exists, so we fall back to the §5.2
    static ranking: lowest worst-case per-record cost wins.
    """
    program = node.program
    if program is None or len(program.programs) <= 1:
        return 0
    uppers = [generated.cost.upper_bound() for generated in program.programs]
    return uppers.index(min(uppers))


def _choose_impl(node: JobNode, schedule: GraphSchedule) -> int:
    index = _static_impl_index(node)
    if index != 0:
        note = (
            f"{node.id}: fused chain pinned impl_{index} "
            "(lowest static worst-case cost)"
        )
        schedule.diagnostics.append(make_diagnostic("REP409", note))
    return index


def _note_combiner_hoist(
    graph: JobGraph, unit: FusedChain, schedule: GraphSchedule
) -> None:
    """Record combiner hoisting across map-fused boundaries."""
    for link, bridge in enumerate(unit.bridges):
        if bridge != "map":
            continue
        consumer = graph.nodes[unit.node_ids[link + 1]]
        program = consumer.program.programs[unit.impl_indexes[link + 1]]
        combiner_safe = program.proof.is_commutative and program.proof.is_associative
        has_reduce = any(
            isinstance(s, ReduceStage) for s in program.summary.pipeline.stages
        )
        if has_reduce and combiner_safe:
            note = (
                f"{consumer.id}: combiner hoisted across fused boundary "
                f"(map-side combine now covers {unit.node_ids[link]}'s records)"
            )
            schedule.diagnostics.append(make_diagnostic("REP408", note))

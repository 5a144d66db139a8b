"""The whole-program job-graph IR.

A :class:`JobGraph` lifts one function's translated fragments out of
their source order into an explicit dataflow DAG: one :class:`JobNode`
per candidate fragment, one :class:`JobEdge` per producer→consumer
variable handoff (from :mod:`repro.lang.analysis.dataflow`).  The graph
is what the fusion optimizer (:mod:`repro.graph.fuse`) rewrites and the
DAG executor (:mod:`repro.graph.executor`) schedules: independent
branches run concurrently, chains become fusion candidates, and outputs
nobody observes become dead stages.

Casper's original per-fragment model (§6.3) re-materializes every
fragment's outputs into source-program variables and re-scans them for
the next fragment; the job graph is the representation that lets the
system skip that round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import GraphError
from ..lang.analysis.dataflow import ProgramDataflow

if TYPE_CHECKING:
    from ..codegen.glue import AdaptiveProgram
    from ..lang import ast_nodes as ast
    from ..lang.analysis.fragments import FragmentAnalysis


@dataclass
class JobNode:
    """One candidate fragment as a job-graph vertex."""

    id: str  # fragment id, e.g. "query1#0"
    index: int  # fragment position within the compiled function
    analysis: Optional["FragmentAnalysis"] = None
    program: Optional["AdaptiveProgram"] = None
    failure_reason: Optional[str] = None

    @property
    def translated(self) -> bool:
        return self.program is not None and bool(self.program.programs)

    @property
    def input_vars(self) -> tuple[str, ...]:
        if self.analysis is None:
            return ()
        return tuple(self.analysis.input_vars)

    @property
    def output_vars(self) -> tuple[str, ...]:
        if self.analysis is None:
            return ()
        return tuple(self.analysis.output_vars)


@dataclass(frozen=True)
class JobEdge:
    """Producer→consumer handoff of one variable between two nodes."""

    producer: str  # node id
    consumer: str
    var: str
    kind: str  # "dataset" | "broadcast"


@dataclass
class JobGraph:
    """The dataflow DAG of one function's candidate fragments."""

    function: str
    nodes: dict[str, JobNode] = field(default_factory=dict)
    edges: list[JobEdge] = field(default_factory=list)
    #: Fragment outputs the function's tail observes (its "results").
    final_vars: frozenset[str] = frozenset()
    #: Variables read from outside any fragment (the program's inputs).
    source_vars: frozenset[str] = frozenset()
    #: Statements ahead of the last fragment that no fragment holds
    #: (an input mutated first, a loop the identifier passed over, an
    #: ``if`` around a fragment): the graph alone would drop them, so
    #: :func:`~repro.graph.executor.run_graph` refuses or interprets
    #: the function whole.  What follows the last fragment is the
    #: function's tail, which reads the job's outputs.
    unrun: tuple["ast.Stmt", ...] = ()
    #: The function body up to its last fragment, and the parsed
    #: program, for that whole-function interpretation.
    statements: tuple["ast.Stmt", ...] = ()
    program: Optional["ast.Program"] = None

    # ------------------------------------------------------------------
    # Structure queries

    def consumers_of(self, node_id: str) -> list[JobEdge]:
        return [e for e in self.edges if e.producer == node_id]

    # ------------------------------------------------------------------
    # Validation

    def topological_order(self, subset: Optional[Iterable[str]] = None) -> list[str]:
        """Node ids in dependency order; raises GraphError on a cycle.

        ``subset`` restricts the sort (and cycle check) to the given
        node ids, ignoring edges that leave the subset.
        """
        ids = list(subset) if subset is not None else list(self.nodes)
        id_set = set(ids)
        indegree = {node_id: 0 for node_id in ids}
        for edge in self.edges:
            if edge.producer in id_set and edge.consumer in id_set:
                indegree[edge.consumer] += 1
        ready = [node_id for node_id in ids if indegree[node_id] == 0]
        order: list[str] = []
        while ready:
            node_id = ready.pop(0)
            order.append(node_id)
            for edge in self.consumers_of(node_id):
                if edge.consumer in id_set:
                    indegree[edge.consumer] -= 1
                    if indegree[edge.consumer] == 0:
                        ready.append(edge.consumer)
        if len(order) != len(ids):
            cyclic = sorted(node_id for node_id in ids if node_id not in set(order))
            raise GraphError(
                f"job graph for {self.function!r} contains a dependency "
                f"cycle through: {', '.join(cyclic)}"
            )
        return order

    def check_producers(self, node_ids: Optional[Iterable[str]] = None) -> None:
        """Raise GraphError when a needed producer failed to translate.

        A consumer can only execute if every producer it depends on has a
        runnable translation (or, in non-strict execution, at least a
        successful analysis to interpret from).  The error enumerates the
        broken handoffs so the caller knows exactly which fragment to fix.
        """
        wanted = set(node_ids) if node_ids is not None else set(self.nodes)
        broken: list[str] = []
        for edge in self.edges:
            if edge.consumer not in wanted or edge.producer not in wanted:
                continue
            producer = self.nodes[edge.producer]
            if not producer.translated:
                broken.append(
                    f"{edge.consumer} needs {edge.var!r} from {edge.producer}, "
                    f"which was not translated "
                    f"({producer.failure_reason or 'unknown reason'})"
                )
        if broken:
            raise GraphError(
                f"job graph for {self.function!r} has consumers of failed "
                "producers: " + "; ".join(broken)
            )

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable graph dump (nodes, edges, final variables)."""
        lines = [f"job graph {self.function!r}:"]
        for node in self.nodes.values():
            status = (
                "translated"
                if node.translated
                else f"untranslated: {node.failure_reason or 'unknown reason'}"
            )
            lines.append(
                f"  [{node.index}] {node.id} ({status}) "
                f"in={list(node.input_vars)} out={list(node.output_vars)}"
            )
        for edge in self.edges:
            lines.append(
                f"  {edge.producer} --{edge.var}/{edge.kind}--> {edge.consumer}"
            )
        lines.append(f"  final: {sorted(self.final_vars)}")
        return "\n".join(lines)


def build_job_graph(
    function: str,
    fragments: list,
    dataflow: ProgramDataflow,
    program: Optional["ast.Program"] = None,
) -> JobGraph:
    """Assemble the job graph from fragment states and their dataflow.

    ``fragments`` is any sequence of objects with ``fragment``,
    ``analysis``, ``program`` and ``failure_reason`` attributes — both
    the pipeline's ``FragmentState`` and the compiler's
    ``FragmentTranslation`` qualify, so the graph can be built inside
    the pass pipeline or re-derived from a finished compilation.
    ``program`` (the parsed source) lets the graph find the statements
    it does not run (``unrun``).
    """
    graph = JobGraph(
        function=function,
        final_vars=dataflow.final_vars,
        source_vars=dataflow.source_vars,
        program=program,
    )
    if program is not None and fragments:
        graph.statements, graph.unrun = _job_statements(
            program.function(function).body.stmts,
            [state.fragment for state in fragments],
        )
    for index, state in enumerate(fragments):
        node = JobNode(
            id=state.fragment.id,
            index=index,
            analysis=state.analysis,
            program=state.program,
            failure_reason=state.failure_reason,
        )
        graph.nodes[node.id] = node
    ids = [node.id for node in graph.nodes.values()]
    for edge in dataflow.edges:
        graph.edges.append(
            JobEdge(
                producer=ids[edge.producer],
                consumer=ids[edge.consumer],
                var=edge.var,
                kind=edge.kind,
            )
        )
    return graph


def _job_statements(body: list, fragments: list) -> tuple[tuple, tuple]:
    """The function body up to the last statement holding a fragment's
    loop, and those of its statements that are neither a fragment's
    loop nor its prelude."""
    from ..lang import ast_nodes as ast

    held = {id(stmt) for fragment in fragments for stmt in fragment.statements}
    loops = {id(fragment.loop) for fragment in fragments}
    last = max(
        (
            index
            for index, stmt in enumerate(body)
            if any(id(node) in loops for node in ast.walk(stmt))
        ),
        default=-1,
    )
    job = tuple(body[: last + 1])
    return job, tuple(stmt for stmt in job if id(stmt) not in held)

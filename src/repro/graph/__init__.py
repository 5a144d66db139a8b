"""Whole-program job graphs: dataflow-stitched fragment DAGs.

Casper translates each candidate fragment independently and glues its
output back into the source program (§6.3); multi-fragment programs
therefore execute as serialized, fully re-materialized jobs.  This
package lifts a compiled function into an explicit dataflow DAG of
translated fragments and executes it as one program:

* :mod:`repro.graph.jobgraph` — the :class:`JobGraph` IR (nodes, typed
  producer→consumer edges, final variables, cycle/producer validation);
* :mod:`repro.graph.fuse` — the fusion optimizer: map→map fusion,
  combiner hoisting across fused boundaries, dead-stage elimination;
* :mod:`repro.graph.executor` — wave scheduling with concurrent branch
  execution, shared dataset-view caching, and stitched fused chains on
  the real local engines.

Users run a whole program by submitting it to a :class:`repro.Session`
without a ``fragment_index``; the session calls :func:`run_graph`.
"""

from .executor import GraphRunResult, interpret_reference, run_graph
from .fuse import FusedChain, GraphSchedule, optimize_graph
from .jobgraph import JobEdge, JobGraph, JobNode, build_job_graph

__all__ = [
    "FusedChain",
    "GraphRunResult",
    "GraphSchedule",
    "JobEdge",
    "JobGraph",
    "JobNode",
    "build_job_graph",
    "interpret_reference",
    "optimize_graph",
    "run_graph",
]

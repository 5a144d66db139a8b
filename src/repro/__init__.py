"""repro — a reproduction of Casper (SIGMOD 2018).

Casper translates sequential Java code into semantically equivalent
MapReduce programs via verified lifting: program synthesis finds a
high-level *program summary* of each loop fragment, a theorem prover
checks it, and code generators retarget it to Spark, Hadoop, or Flink.

This package implements the full system in Python over a simulated
distributed substrate (see DESIGN.md for the substitution map):

* :mod:`repro.lang` — the mini-Java frontend and program analyses
* :mod:`repro.ir` — the high-level IR for program summaries
* :mod:`repro.synthesis` — grammar generation + CEGIS search
* :mod:`repro.verification` — bounded checking + inductive prover
* :mod:`repro.cost` — the data-centric cost model + runtime monitor
* :mod:`repro.engine` — the real local engine (in-process or over a
  worker pool) and the Spark/Hadoop/Flink cost model that prices its runs
* :mod:`repro.planner` — cost-driven execution planning (backend,
  partitions, combiners) with per-run ``PlanReport`` evidence
* :mod:`repro.codegen` — code generation and the adaptive program
* :mod:`repro.compiler` — the end-to-end pipeline
* :mod:`repro.session` / :mod:`repro.serve` — the resident session API
  and the compile-and-serve daemon
* :mod:`repro.baselines` — MOLD-style rules, mini-SparkSQL, manual impls
* :mod:`repro.workloads` — the seven benchmark suites and data generators

**Stable public API** (everything else is importable but may move):
:func:`compile` / :func:`translate`, :class:`Session`,
:class:`ExecOptions`, :class:`JobResult`, :func:`connect`,
:mod:`repro.serve`, and :mod:`repro.errors`.

Quickstart::

    import repro

    with repro.Session() as session:
        prog = session.compile(JAVA_SOURCE)
        job = session.submit(prog, {"data": [...], "n": 3})
        print(job.result().outputs)

Every run entry point has one shape — ``(program_or_result, inputs,
options=None[, fragment_index=None])`` with ``options`` an
:class:`ExecOptions` — and every layer returns what it produced:
``run_program`` / ``run_translated`` return the outputs, and the
evidence (plan report, metrics, admission) rides on the
:class:`JobResult` of :meth:`Session.submit`, the ``GraphRunResult`` of
``run_graph`` and the ``ExecutionOutcome`` of ``AdaptiveProgram.run``.
Nothing is read back from shared "last run" state.
"""

from .compiler import (
    CasperCompiler,
    CompilationResult,
    FragmentTranslation,
    run_program,
    run_translated,
    translate,
    translate_many,
)
from .engine.config import ClusterConfig, EngineConfig
from .engine.source import (
    Dataset,
    GeneratorSource,
    JsonlSource,
    ListSource,
    TextSource,
)
from .graph import GraphRunResult, JobGraph
from .options import ExecOptions
from .pipeline import PassPipeline, SummaryCache
from .planner import (
    DagPlanner,
    ExecutionPlan,
    ExecutionPlanner,
    GraphPlanReport,
    PlanReport,
)
from .session import JobHandle, JobResult, Session
from .synthesis.search import SearchConfig
from . import errors, serve

#: ``repro.compile(source)`` — the stable name for :func:`translate`.
compile = translate


def connect(address: str, timeout: float = 300.0):
    """Connect to a running serve daemon; see :mod:`repro.serve`."""
    from .serve.client import connect as _connect

    return _connect(address, timeout=timeout)


__version__ = "1.7.0"

__all__ = [
    # Stable session-era API.
    "ExecOptions",
    "JobHandle",
    "JobResult",
    "Session",
    "compile",
    "connect",
    "errors",
    "serve",
    "translate",
    # Established building blocks.
    "CasperCompiler",
    "ClusterConfig",
    "CompilationResult",
    "DagPlanner",
    "Dataset",
    "EngineConfig",
    "ExecutionPlan",
    "ExecutionPlanner",
    "FragmentTranslation",
    "GeneratorSource",
    "GraphPlanReport",
    "GraphRunResult",
    "JobGraph",
    "JsonlSource",
    "ListSource",
    "PassPipeline",
    "PlanReport",
    "SearchConfig",
    "SummaryCache",
    "TextSource",
    "translate_many",
    # Convenience entry points returning bare outputs.
    "run_program",
    "run_translated",
    "__version__",
]

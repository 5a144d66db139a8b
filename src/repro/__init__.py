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

**Public API** (``__all__``; everything else is importable from its
defining module but may move): :func:`compile` / :func:`translate`,
:class:`Session`, :class:`ExecOptions`, :class:`JobHandle` /
:class:`JobResult`, :func:`connect`, :mod:`repro.serve`,
:mod:`repro.errors`, the compilation results, the search and engine
configurations, the summary cache and the input sources.

Quickstart::

    import repro

    with repro.Session() as session:
        prog = session.compile(JAVA_SOURCE)
        result = session.run(prog, {"data": [...], "n": 3})
        print(result.outputs, result.plan_report)

A :class:`Session` is the one way to run a compiled job:
``session.run`` / ``session.submit(program, inputs, options=None,
fragment_index=None)`` with ``options`` an :class:`ExecOptions`.  The
default runs the whole program as a job graph; ``fragment_index`` runs
one translated fragment through its adaptive program.
``Session(max_workers=0)`` runs jobs inline on the caller's thread,
which is what scripts want.  Each job's evidence (plan report, metrics,
admission) rides on its :class:`JobResult`; nothing is read back from
shared "last run" state.
"""

from .compiler import CompilationResult, FragmentTranslation, translate
from .engine.config import ClusterConfig, EngineConfig
from .engine.source import Dataset, GeneratorSource, ListSource
from .options import ExecOptions
from .pipeline import SummaryCache
from .session import JobHandle, JobResult, Session
from .synthesis.search import SearchConfig
from . import errors, serve

#: ``repro.compile(source)`` — the stable name for :func:`translate`.
compile = translate


def connect(address: str, timeout: float = 300.0):
    """Connect to a running serve daemon; see :mod:`repro.serve`."""
    from .serve.client import connect as _connect

    return _connect(address, timeout=timeout)


__version__ = "1.8.0"

__all__ = [
    # Compile, run, serve.
    "ExecOptions",
    "JobHandle",
    "JobResult",
    "Session",
    "compile",
    "connect",
    "errors",
    "serve",
    "translate",
    # What a compile returns and what configures it.
    "ClusterConfig",
    "CompilationResult",
    "EngineConfig",
    "FragmentTranslation",
    "SearchConfig",
    "SummaryCache",
    # Inputs.
    "Dataset",
    "GeneratorSource",
    "ListSource",
    "__version__",
]

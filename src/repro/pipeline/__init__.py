"""The staged compilation pipeline.

Organizes the Casper compiler as explicit passes over an explicit
:class:`CompilationContext` (the seam :class:`repro.compiler
.CasperCompiler` drives), with two subsystems built on that seam:

* :mod:`repro.pipeline.cache` — a content-addressed summary cache keyed
  by alpha-renamed fragment fingerprints, so recompiling an identical or
  alpha-equivalent fragment skips CEGIS and verification entirely;
* :mod:`repro.pipeline.scheduler` — a thread-pool scheduler that runs
  independent fragments' pass chains concurrently and batches whole
  workload suites through one pool.
"""

from .cache import CacheHit, CacheStats, SummaryCache, search_config_key
from .context import CompilationContext, FragmentState
from .passes import (
    AnalyzePass,
    CodegenPass,
    CompilerPass,
    GraphPass,
    PlanPass,
    SynthesizePass,
    VerifyAttachPass,
    default_passes,
    run_passes,
)
from .scheduler import PassPipeline, default_worker_count

__all__ = [
    "AnalyzePass",
    "CacheHit",
    "CacheStats",
    "CodegenPass",
    "CompilationContext",
    "CompilerPass",
    "FragmentState",
    "GraphPass",
    "PassPipeline",
    "PlanPass",
    "SummaryCache",
    "SynthesizePass",
    "VerifyAttachPass",
    "default_passes",
    "default_worker_count",
    "run_passes",
    "search_config_key",
]

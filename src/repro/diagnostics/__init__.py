"""Static soundness analysis and structured diagnostics.

This package is the pipeline's account of *why*: why a fragment was
rejected before CEGIS (:mod:`~repro.diagnostics.soundness`), why a proof
was demoted to Tier-2, why the engine fell back in-process, what the
planner, the graph optimizer and admission control decided — all as
structured :class:`Diagnostic` objects with stable codes
(:mod:`~repro.diagnostics.codes`) instead of free-text strings.  It also
hosts the one picklability check
(:mod:`~repro.diagnostics.pickling`) and the repo-invariant lint
(``python -m repro.diagnostics.lint``).
"""

from repro.diagnostics.codes import REGISTRY, SEVERITIES, CodeInfo, info_for
from repro.diagnostics.diagnostic import (
    Diagnostic,
    diagnostic_from_data,
    escalate_strict,
    explain,
    make,
    worst_severity,
)
from repro.diagnostics.pickling import unpicklable_reason
from repro.diagnostics.soundness import analyze_soundness, has_rejections

__all__ = [
    "REGISTRY",
    "SEVERITIES",
    "CodeInfo",
    "Diagnostic",
    "analyze_soundness",
    "diagnostic_from_data",
    "escalate_strict",
    "explain",
    "has_rejections",
    "info_for",
    "make",
    "unpicklable_reason",
    "worst_severity",
]

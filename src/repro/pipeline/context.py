"""Compilation context threaded through the staged pass pipeline.

One :class:`CompilationContext` describes one function being translated;
it carries the parsed program, the configuration, the shared summary
cache, and one :class:`FragmentState` per candidate code fragment.  The
passes in :mod:`repro.pipeline.passes` mutate fragment states in order
(analyze → synthesize → verify-attach → codegen → plan), one fragment
after another on the caller's thread.  Only the summary cache is shared
beyond one compile, and it carries its own lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..diagnostics.diagnostic import Diagnostic
from ..lang import ast_nodes as ast
from ..lang.analysis.fragments import (
    CodeFragment,
    FragmentAnalysis,
    FragmentFingerprint,
)
from ..synthesis.search import SearchConfig, SearchResult

if TYPE_CHECKING:
    from ..codegen.glue import AdaptiveProgram
    from ..graph.jobgraph import JobGraph
    from .cache import SummaryCache


@dataclass
class FragmentState:
    """Everything the passes accumulate for one code fragment.

    A pass that cannot proceed sets ``failure_reason`` and the scheduler
    skips the remaining passes for this fragment; earlier results stay
    available so callers can inspect how far the fragment got.
    """

    fragment: CodeFragment
    analysis: Optional[FragmentAnalysis] = None
    fingerprint: Optional[FragmentFingerprint] = None
    search: Optional[SearchResult] = None
    program: Optional["AdaptiveProgram"] = None
    failure_reason: Optional[str] = None
    #: Structured diagnostics accumulated across passes (stable REPxxx
    #: codes); a rejection always has an error-level entry here too.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None


@dataclass
class CompilationContext:
    """Shared state of one function's trip through the pass pipeline."""

    program: ast.Program
    function: str
    search_config: SearchConfig = field(default_factory=SearchConfig)
    cache: Optional["SummaryCache"] = None
    #: Run the static soundness gate before synthesis (default on; the
    #: bench harness turns it off to measure CEGIS seconds saved).
    soundness: bool = True
    #: Escalate warning-level diagnostics to :class:`DiagnosticError`.
    strict: bool = False
    fragments: list[FragmentState] = field(default_factory=list)
    #: Whole-program job graph, attached by the ``graph`` pass after
    #: every fragment's chain completes (it needs all of them).
    job_graph: Optional["JobGraph"] = None
    #: Wall-clock seconds spent in each pass, summed over fragments.
    pass_seconds: dict[str, float] = field(default_factory=dict)

    def record_pass_time(self, pass_name: str, seconds: float) -> None:
        self.pass_seconds[pass_name] = self.pass_seconds.get(pass_name, 0.0) + seconds

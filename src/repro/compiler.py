"""The end-to-end Casper compilation pipeline (paper Fig. 2).

``CasperCompiler`` drives the staged pass pipeline of
:mod:`repro.pipeline` — analyze → synthesize → verify-attach → codegen →
plan — over an explicit :class:`~repro.pipeline.context.CompilationContext`:

1. **program analyzer** — parse, identify candidate code fragments,
   extract inputs/outputs/operators, build the dataset view, and compute
   the fragment's content-addressed fingerprint;
2. **summary generator** — consult the summary cache, else grammar
   generation, CEGIS search, two-phase verification (bounded model
   checking + inductive prover);
3. **code generator** — executable backend programs, static cost pruning,
   and the runtime monitor for adaptive dispatch;
4. **execution planner** — compile-time cost bounds plus a runtime
   backend/partition/combiner decision (a job submitted to a
   :class:`~repro.session.Session` with ``ExecOptions(plan="auto")``),
   validated by the real multiprocess backend.

A compile runs its fragments' pass chains one after another on the
caller's thread; compile a suite by calling :func:`translate` per
program with one shared :class:`~repro.pipeline.cache.SummaryCache`,
which skips the summary search entirely when recompiling identical or
alpha-equivalent fragments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import Diagnostic, explain as explain_diagnostics
from .errors import AnalysisError
from .lang import ast_nodes as ast
from .lang.parser import parse_program
from .lang.analysis.fragments import CodeFragment, FragmentAnalysis
from .codegen.glue import AdaptiveProgram
from .codegen.render import render
from .graph.jobgraph import JobGraph
from .pipeline.cache import SummaryCache
from .pipeline.context import CompilationContext
from .pipeline.scheduler import PassPipeline
from .synthesis.search import SearchConfig, SearchResult


@dataclass
class FragmentTranslation:
    """Everything produced for one code fragment."""

    fragment: CodeFragment
    analysis: Optional[FragmentAnalysis]
    search: Optional[SearchResult]
    program: Optional[AdaptiveProgram]
    failure_reason: Optional[str] = None
    #: Structured diagnostics (:mod:`repro.diagnostics`) accumulated by
    #: the passes that processed this fragment, in emission order.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def translated(self) -> bool:
        return self.program is not None and bool(self.program.programs)

    @property
    def cache_hit(self) -> bool:
        """True when the summaries came from the summary cache."""
        return self.search is not None and self.search.cache_hit

    def explain(self) -> str:
        """Human-readable rendering of this fragment's diagnostics."""
        return explain_diagnostics(self.diagnostics)

    def rendered_code(self, backend: str = "spark") -> str:
        """Java-like source of the chosen translation (Appendix C rules)."""
        if not self.translated:
            raise AnalysisError("fragment was not translated")
        best = self.program.programs[0]
        return render(
            best.summary,
            backend,
            commutative_associative=(
                best.proof.is_commutative and best.proof.is_associative
            ),
        )


@dataclass
class CompilationResult:
    """Result of compiling one function."""

    function: str
    fragments: list[FragmentTranslation] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Wall-clock seconds per pipeline pass, summed over fragments.
    pass_seconds: dict[str, float] = field(default_factory=dict)
    #: Whole-program job graph (built by the sixth, ``graph``, pass):
    #: the dataflow DAG a :class:`~repro.session.Session` job schedules
    #: and executes.
    job_graph: Optional["JobGraph"] = None

    @property
    def identified(self) -> int:
        return len(self.fragments)

    @property
    def translated(self) -> int:
        return sum(1 for f in self.fragments if f.translated)

    @property
    def tp_failures(self) -> int:
        return sum(f.search.tp_failures for f in self.fragments if f.search)

    @property
    def candidates_checked(self) -> int:
        return sum(f.search.candidates_checked for f in self.fragments if f.search)

    @property
    def cache_hits(self) -> int:
        return sum(1 for f in self.fragments if f.cache_hit)

    @property
    def searches_run(self) -> int:
        """Fragments whose summary search actually ran in this compile —
        not answered by a cached summary or a cached exhausted verdict."""
        return sum(1 for f in self.fragments if f.search and f.search.searched)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """All fragments' diagnostics, in fragment order."""
        return [d for f in self.fragments for d in f.diagnostics]

    def explain(self) -> str:
        """Human-readable rendering of every fragment's diagnostics."""
        return explain_diagnostics(self.diagnostics)


@dataclass
class CasperCompiler:
    """Translates sequential mini-Java functions into MapReduce programs."""

    search_config: SearchConfig = field(default_factory=SearchConfig)
    #: Shared content-addressed summary cache; None disables caching.
    cache: Optional[SummaryCache] = None
    #: Run the pre-synthesis soundness analyzer (REP1xx codes); off
    #: skips the gate and lets CEGIS discover the failure the slow way.
    soundness: bool = True
    #: Escalate warning-level diagnostics to a typed
    #: :class:`~repro.errors.DiagnosticError` instead of compiling with
    #: a degraded (Tier-2 / bounded-only) result.
    strict: bool = False

    # ------------------------------------------------------------------

    def translate_source(
        self, source: str, function: Optional[str] = None
    ) -> CompilationResult:
        """Parse source text and translate the named (or sole) function."""
        program = parse_program(source)
        if function is None:
            if len(program.functions) != 1:
                raise AnalysisError(
                    "source defines multiple functions; name one explicitly"
                )
            function = program.functions[0].name
        return self.translate(program, function)

    def translate(self, program: ast.Program, function: str) -> CompilationResult:
        """Run the full pipeline on one function."""
        started = time.monotonic()
        ctx = PassPipeline().run(
            CompilationContext(
                program=program,
                function=function,
                search_config=self.search_config,
                cache=self.cache,
                soundness=self.soundness,
                strict=self.strict,
            )
        )
        return CompilationResult(
            function=function,
            fragments=[
                FragmentTranslation(
                    fragment=state.fragment,
                    analysis=state.analysis,
                    search=state.search,
                    program=state.program,
                    failure_reason=state.failure_reason,
                    diagnostics=list(state.diagnostics),
                )
                for state in ctx.fragments
            ],
            elapsed_seconds=time.monotonic() - started,
            pass_seconds=dict(ctx.pass_seconds),
            job_graph=ctx.job_graph,
        )


def translate(
    source: str,
    function: Optional[str] = None,
    search_config: Optional[SearchConfig] = None,
    cache: Optional[SummaryCache] = None,
) -> CompilationResult:
    """One-call convenience API: source text in, translations out.

    The result carries no execution choice: each job picks its
    framework (``ExecOptions(plan=...)``)."""
    compiler = CasperCompiler(
        search_config=search_config or SearchConfig(), cache=cache
    )
    return compiler.translate_source(source, function)


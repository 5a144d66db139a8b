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
   backend/partition/combiner decision (``run_translated(...,
   ExecOptions(plan="auto"))``), validated by the real multiprocess
   backend.

Independent fragments compile concurrently, and :meth:`CasperCompiler
.translate_many` batches whole workload suites through one worker pool.
Attach a :class:`~repro.pipeline.cache.SummaryCache` to skip the summary
search entirely when recompiling identical or alpha-equivalent fragments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from .diagnostics import Diagnostic, explain as explain_diagnostics
from .errors import AnalysisError
from .options import ExecOptions, check_options
from .lang import ast_nodes as ast
from .lang.parser import parse_program
from .lang.analysis.fragments import CodeFragment, FragmentAnalysis
from .codegen.base import ExecutionOutcome
from .codegen.glue import AdaptiveProgram
from .codegen.render import render
from .engine.config import EngineConfig
from .graph.executor import GraphRunResult, run_graph
from .graph.jobgraph import JobGraph
from .pipeline.cache import SummaryCache
from .pipeline.context import CompilationContext
from .pipeline.scheduler import PassPipeline
from .synthesis.search import SearchConfig, SearchResult

#: A batch item: plain source text, or ``(source, function_name)``.
SourceSpec = Union[str, tuple[str, Optional[str]]]


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
    #: the dataflow DAG :func:`run_program` schedules and executes.
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
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    backend: str = "spark"
    #: Shared content-addressed summary cache; None disables caching.
    cache: Optional[SummaryCache] = None
    #: Worker threads for fragment-level parallelism; None → per-core
    #: default, 1 → strictly sequential.
    max_workers: Optional[int] = None
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
        program, function = self._parse_spec(source, function)
        return self.translate(program, function)

    def translate(self, program: ast.Program, function: str) -> CompilationResult:
        """Run the full pipeline on one function."""
        started = time.monotonic()
        ctx = self._context(program, function)
        self._pipeline().run(ctx)
        return self._finish(ctx, time.monotonic() - started)

    def translate_many(
        self, sources: Sequence[SourceSpec]
    ) -> list[CompilationResult]:
        """Compile a batch of programs through one shared worker pool.

        Each item is source text or a ``(source, function)`` pair.  The
        results are positionally aligned with ``sources`` and identical
        to what sequential :meth:`translate` calls would produce; all
        fragments of all programs share the scheduler's worker pool (and
        the summary cache, when one is attached), so suites compile
        concurrently instead of serially.

        Batch execution interleaves programs, so each result's
        ``elapsed_seconds`` is the wall-clock time its own passes spent
        (summed over its fragments) — comparable to a sequential
        ``translate`` timing, not the whole batch's duration.
        """
        contexts = []
        for spec in sources:
            source, function = (
                spec if isinstance(spec, tuple) else (spec, None)
            )
            program, function = self._parse_spec(source, function)
            contexts.append(self._context(program, function))
        self._pipeline().run_many(contexts)
        return [
            self._finish(ctx, sum(ctx.pass_seconds.values()))
            for ctx in contexts
        ]

    # ------------------------------------------------------------------

    def _parse_spec(
        self, source: str, function: Optional[str]
    ) -> tuple[ast.Program, str]:
        program = parse_program(source)
        if function is None:
            if len(program.functions) != 1:
                raise AnalysisError(
                    "source defines multiple functions; name one explicitly"
                )
            function = program.functions[0].name
        return program, function

    def _pipeline(self) -> PassPipeline:
        return PassPipeline(max_workers=self.max_workers)

    def _context(self, program: ast.Program, function: str) -> CompilationContext:
        return CompilationContext(
            program=program,
            function=function,
            search_config=self.search_config,
            engine_config=self.engine_config,
            backend=self.backend,
            cache=self.cache,
            soundness=self.soundness,
            strict=self.strict,
        )

    @staticmethod
    def _finish(ctx: CompilationContext, elapsed: float) -> CompilationResult:
        result = CompilationResult(function=ctx.function)
        for state in ctx.fragments:
            result.fragments.append(
                FragmentTranslation(
                    fragment=state.fragment,
                    analysis=state.analysis,
                    search=state.search,
                    program=state.program,
                    failure_reason=state.failure_reason,
                    diagnostics=list(state.diagnostics),
                )
            )
        result.elapsed_seconds = elapsed
        result.pass_seconds = dict(ctx.pass_seconds)
        result.job_graph = ctx.job_graph
        return result


def translate(
    source: str,
    function: Optional[str] = None,
    backend: str = "spark",
    search_config: Optional[SearchConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    cache: Optional[SummaryCache] = None,
) -> CompilationResult:
    """One-call convenience API: source text in, translations out."""
    compiler = CasperCompiler(
        search_config=search_config or SearchConfig(),
        engine_config=engine_config or EngineConfig(),
        backend=backend,
        cache=cache,
    )
    return compiler.translate_source(source, function)


def translate_many(
    sources: Sequence[SourceSpec],
    backend: str = "spark",
    search_config: Optional[SearchConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    cache: Optional[SummaryCache] = None,
    max_workers: Optional[int] = None,
) -> list[CompilationResult]:
    """Batch convenience API: compile many sources concurrently."""
    compiler = CasperCompiler(
        search_config=search_config or SearchConfig(),
        engine_config=engine_config or EngineConfig(),
        backend=backend,
        cache=cache,
        max_workers=max_workers,
    )
    return compiler.translate_many(sources)


def run_translated(
    result: CompilationResult,
    inputs: dict[str, Any],
    options: Optional[ExecOptions] = None,
    fragment_index: Optional[int] = None,
) -> dict[str, Any]:
    """Run one translated fragment of a compilation result.

    Without ``fragment_index`` the result must contain exactly one
    fragment and it must be translated; otherwise an
    :class:`~repro.errors.AnalysisError` explains which fragments exist,
    which failed to translate and why — nothing is silently skipped.

    ``options`` (an :class:`~repro.options.ExecOptions`) says how to
    execute; only the fragment-level knobs apply here (``plan``,
    ``memory_budget``, ``feedback``).

    Returns the fragment's outputs.  The evidence — plan report,
    metrics, chosen implementation — is on the
    :class:`~repro.codegen.base.ExecutionOutcome` that
    ``fragment.program.run(inputs, options)`` returns, and on the
    :class:`~repro.session.JobResult` of :meth:`repro.Session.submit`.
    """
    options = check_options(options, "run_translated")
    return _run_fragment(result, inputs, fragment_index, options).outputs


def _run_fragment(
    result: CompilationResult,
    inputs: dict[str, Any],
    fragment_index: Optional[int],
    options: ExecOptions,
) -> ExecutionOutcome:
    """Run one fragment, returning its full :class:`ExecutionOutcome`."""
    return _pick_fragment(result, fragment_index).program.run(inputs, options)


def run_program(
    result: CompilationResult,
    inputs: dict[str, Any],
    options: Optional[ExecOptions] = None,
) -> dict[str, Any]:
    """Run a whole compiled program as one dataflow-scheduled job graph.

    This supersedes per-fragment :func:`run_translated` for
    multi-fragment programs: fragments execute in dependency order,
    independent branches run concurrently, producer→consumer chains are
    fused into single engine invocations (the intermediate dataset is
    handed over partitioned instead of rebuilt), and shared input scans
    are materialized once.  Results are identical to running each
    fragment sequentially through the reference interpreter.

    ``options`` (an :class:`~repro.options.ExecOptions`) carries every
    execution knob; see :func:`~repro.graph.executor.run_graph` for how
    each applies to a graph.

    Returns the program's outputs.  The
    :class:`~repro.planner.dag.GraphPlanReport` evidence trail is on the
    :class:`~repro.graph.executor.GraphRunResult` that
    ``run_graph(result.job_graph, inputs, options)`` returns, and on the
    :class:`~repro.session.JobResult` of :meth:`repro.Session.submit`.
    """
    options = check_options(options, "run_program")
    return _run_program(result, inputs, options).outputs


def _run_program(
    result: CompilationResult,
    inputs: dict[str, Any],
    options: ExecOptions,
) -> GraphRunResult:
    """Whole-program execution returning the full ``GraphRunResult``."""
    return run_graph(result.job_graph, inputs, options)


def _pick_fragment(
    result: CompilationResult, fragment_index: Optional[int]
) -> FragmentTranslation:
    if fragment_index is not None:
        try:
            fragment = result.fragments[fragment_index]
        except IndexError:
            raise AnalysisError(
                f"fragment_index {fragment_index} out of range: "
                f"result has {len(result.fragments)} fragment(s)"
            ) from None
        if not fragment.translated:
            raise AnalysisError(
                f"fragment {fragment.fragment.id!r} was not translated: "
                f"{fragment.failure_reason or 'unknown reason'}"
            )
        return fragment

    if not result.fragments:
        raise AnalysisError("compilation identified no fragments to run")
    if len(result.fragments) > 1:
        raise AnalysisError(
            f"{result.function!r} has {len(result.fragments)} fragments — "
            "use run_program(result, inputs) to execute the whole program "
            "as a job graph, or pass fragment_index to run one of: "
            + "; ".join(
                _fragment_status(f, i) for i, f in enumerate(result.fragments)
            )
        )
    only = result.fragments[0]
    if not only.translated:
        raise AnalysisError(
            f"fragment {only.fragment.id!r} was not translated: "
            f"{only.failure_reason or 'unknown reason'}"
        )
    return only


def _fragment_status(fragment: FragmentTranslation, index: int) -> str:
    if fragment.translated:
        return f"[{index}] {fragment.fragment.id} (translated)"
    return (
        f"[{index}] {fragment.fragment.id} (untranslated: "
        f"{fragment.failure_reason or 'unknown reason'})"
    )

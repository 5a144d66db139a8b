"""The staged compiler passes:
analyze → synthesize → verify-attach → codegen → plan → graph.

Each of the first five passes is a small, stateless object transforming
one fragment's :class:`~repro.pipeline.context.FragmentState`.  Keeping
the stages as explicit passes (instead of one monolithic ``translate``
body) gives the pipeline its seams: the scheduler can run fragments
concurrently, the synthesize pass can consult the summary cache, and
instrumentation gets per-stage timings for free.

The sixth, ``graph``, is a *context* pass: it runs once per function
after every fragment's chain has finished (it needs all of them) and
stitches the per-fragment liveness sets into the whole-program job
graph that ``run_program`` executes.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..diagnostics import analyze_soundness, escalate_strict, explain, has_rejections, make
from ..errors import AnalysisError, CodegenError
from ..lang.analysis.fragments import analyze_fragment, fingerprint_fragment
from .context import CompilationContext, FragmentState


class CompilerPass:
    """Base class: a named transformation of one fragment's state."""

    name = "pass"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        raise NotImplementedError


class AnalyzePass(CompilerPass):
    """Program analysis: inputs/outputs/operators/view + fingerprint."""

    name = "analyze"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        try:
            state.analysis = analyze_fragment(state.fragment, ctx.program)
        except AnalysisError as exc:
            state.diagnostics.append(
                make("REP101", str(exc), fragment=state.fragment.id)
            )
            state.failure_reason = f"analysis failed: {exc} [REP101]"
            return
        # The fingerprint only exists to key the summary cache; skip the
        # canonical serialization + hash when no cache is attached.
        if ctx.cache is not None:
            state.fingerprint = fingerprint_fragment(state.analysis)


class SoundnessPass(CompilerPass):
    """Static soundness gate: reject provably-uncheckable fragments early.

    Fragments whose loop calls unmodelled or nondeterministic library
    methods cannot be interpreted by the bounded checker, so CEGIS could
    only ever validate candidates vacuously (and has mistranslated such
    fragments before).  They are rejected *here*, before any search time
    is spent, with an error-level diagnostic.  Warning/info findings
    (scratch mutation, order dependence, float folds, unpicklable
    captures) ride along on the fragment state; under ``ctx.strict``
    they escalate to a typed :class:`~repro.errors.DiagnosticError`.
    """

    name = "soundness"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        if not ctx.soundness:
            return
        assert state.analysis is not None
        diags = analyze_soundness(
            state.analysis,
            accept_bounded_only=ctx.search_config.accept_bounded_only,
        )
        state.diagnostics.extend(diags)
        if has_rejections(diags):
            codes = sorted({d.code for d in diags if d.severity == "error"})
            state.failure_reason = (
                f"soundness: fragment rejected before synthesis "
                f"[{', '.join(codes)}]\n{explain(diags)}"
            )
            return
        if ctx.strict:
            escalate_strict(diags, f"fragment {state.fragment.id}")


class SynthesizePass(CompilerPass):
    """Summary search: cache lookup, else grammar → CEGIS → verification."""

    name = "synthesize"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        from ..synthesis.search import find_summaries_cached

        assert state.analysis is not None
        state.search = find_summaries_cached(
            state.analysis,
            ctx.search_config,
            cache=ctx.cache,
            fingerprint=state.fingerprint,
        )
        state.diagnostics.extend(state.search.diagnostics)
        if state.search.counterexample_states:
            state.diagnostics.append(
                make(
                    "REP204",
                    f"bounded checker refuted candidates with "
                    f"{len(state.search.counterexample_states)} "
                    "counterexample state(s); cached for future searches",
                    fragment=state.fragment.id,
                )
            )
        if not state.search.translated:
            reason = state.search.failure_reason or "synthesis failed"
            code = state.search.failure_code or "REP205"
            state.diagnostics.append(
                make(code, reason, fragment=state.fragment.id)
            )
            state.failure_reason = f"{reason} [{code}]"


class VerifyAttachPass(CompilerPass):
    """Attach proofs: re-check every summary carries an accepted proof.

    Verification itself is interleaved with CEGIS inside the synthesize
    pass (candidates must be verified to be blocked or kept), so this
    pass is the pipeline's acceptance gate: it drops any summary whose
    proof the current configuration would not accept — which matters for
    cache hits, where the entry may have been produced under a laxer
    ``accept_bounded_only`` or by an older library version.
    """

    name = "verify-attach"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        assert state.search is not None
        accepted = []
        bounded_only = 0
        for vs in state.search.summaries:
            if vs.proof.status == "proved":
                accepted.append(vs)
            elif vs.proof.status == "unknown" and ctx.search_config.accept_bounded_only:
                accepted.append(vs)
                bounded_only += 1
        if len(accepted) != len(state.search.summaries):
            state.search.summaries = accepted
        if bounded_only:
            reasons = sorted(
                {
                    vs.proof.reason
                    for vs in accepted
                    if vs.proof.status == "unknown" and vs.proof.reason
                }
            )
            state.diagnostics.append(
                make(
                    "REP203",
                    f"{bounded_only} of {len(accepted)} summaries accepted on "
                    "bounded (Tier-2) evidence only"
                    + (f": {'; '.join(reasons)}" if reasons else ""),
                    fragment=state.fragment.id,
                )
            )
            if ctx.strict:
                escalate_strict(
                    [d for d in state.diagnostics if d.code == "REP203"],
                    f"fragment {state.fragment.id}",
                )
        if not accepted:
            reason = (
                state.search.failure_reason
                or "no summary carries an acceptable proof"
            )
            state.diagnostics.append(
                make("REP207", reason, fragment=state.fragment.id)
            )
            state.failure_reason = f"{reason} [REP207]"


class CodegenPass(CompilerPass):
    """Build the adaptive program (cost pruning + runtime monitor)."""

    name = "codegen"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        from ..codegen.glue import build_adaptive_program

        assert state.analysis is not None and state.search is not None
        try:
            state.program = build_adaptive_program(
                state.analysis,
                state.search.summaries,
                backend=ctx.backend,
                engine_config=ctx.engine_config,
            )
        except CodegenError as exc:
            state.failure_reason = f"codegen failed: {exc}"


class PlanPass(CompilerPass):
    """Attach the execution planner and its compile-time pickle probe.

    The data-dependent half of planning (input size, sampled estimates)
    has to wait until run time; this pass does the static half once per
    fragment — a picklability probe of the summary payload — by asking
    the adaptive program for its
    :class:`~repro.planner.planner.ExecutionPlanner`, so
    ``run(plan="auto")`` can finish the job.
    """

    name = "plan"

    def run(self, ctx: CompilationContext, state: FragmentState) -> None:
        if state.program is not None:
            state.program.ensure_planner()


class GraphPass:
    """Build the whole-program job graph from the compiled fragments.

    Runs the inter-fragment dataflow analysis (liveness in/out sets →
    producer→consumer edges) and attaches the resulting
    :class:`~repro.graph.jobgraph.JobGraph` to the context, so
    ``run_program`` can schedule fused chains and concurrent branches
    without re-deriving the dataflow per run.  It runs once per
    context, after every fragment chain completes.
    """

    name = "graph"

    def run(self, ctx: CompilationContext) -> None:
        from ..graph.jobgraph import build_job_graph
        from ..lang.analysis.dataflow import analyze_dataflow

        func = ctx.program.function(ctx.function)
        dataflow = analyze_dataflow(
            [state.analysis for state in ctx.fragments], func
        )
        ctx.job_graph = build_job_graph(ctx.function, ctx.fragments, dataflow)


def default_passes() -> Sequence[CompilerPass]:
    """The standard per-fragment pipeline, in execution order."""
    return (
        AnalyzePass(),
        SoundnessPass(),
        SynthesizePass(),
        VerifyAttachPass(),
        CodegenPass(),
        PlanPass(),
    )


def run_passes(
    passes: Sequence[CompilerPass], ctx: CompilationContext, state: FragmentState
) -> FragmentState:
    """Run a fragment through the pass chain, stopping at first failure."""
    for compiler_pass in passes:
        if state.failed:
            break
        started = time.monotonic()
        compiler_pass.run(ctx, state)
        ctx.record_pass_time(compiler_pass.name, time.monotonic() - started)
    return state

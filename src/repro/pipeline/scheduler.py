"""Fragment scheduler: runs pass chains, concurrently when asked.

The unit of parallelism is one code fragment's full pass chain
(analyze → synthesize → verify-attach → codegen → plan): fragments are
independent translation units, so whole workload suites can compile
concurrently through :meth:`PassPipeline.run_many` while each fragment
still sees its passes strictly in order.  The shared summary cache is
thread-safe, so concurrent fragments cooperate — the first to finish a
fingerprint populates the entry the rest hit.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from ..cpu import available_cpu_count
from ..lang.analysis.fragments import identify_fragments
from .context import CompilationContext, FragmentState
from .passes import CompilerPass, GraphPass, default_passes, run_passes


def default_worker_count() -> int:
    """Worker pool size: one per *available* core (cgroup/affinity
    aware — ``os.cpu_count()`` over-subscribes containers), capped —
    synthesis is CPU-bound."""
    return min(8, available_cpu_count())


class PassPipeline:
    """Drives compilation contexts through an ordered pass sequence."""

    def __init__(
        self,
        passes: Optional[Sequence[CompilerPass]] = None,
        max_workers: Optional[int] = None,
    ):
        self.passes: Sequence[CompilerPass] = (
            tuple(passes) if passes is not None else tuple(default_passes())
        )
        self.max_workers = (
            max_workers if max_workers is not None else default_worker_count()
        )

    # ------------------------------------------------------------------

    def run(self, ctx: CompilationContext) -> CompilationContext:
        """Compile one context: identify fragments, run every pass chain."""
        self._populate(ctx)
        self._execute([(ctx, state) for state in ctx.fragments])
        self._finish_context(ctx)
        return ctx

    def run_many(
        self, contexts: Sequence[CompilationContext]
    ) -> Sequence[CompilationContext]:
        """Compile many contexts with one shared worker pool.

        All fragments of all contexts are scheduled together, so a batch
        of small programs saturates the pool instead of serializing on
        per-program barriers.  The job-graph builder needs a whole
        function's fragments, so it runs per context after the shared
        pool drains.
        """
        work: list[tuple[CompilationContext, FragmentState]] = []
        for ctx in contexts:
            self._populate(ctx)
            work.extend((ctx, state) for state in ctx.fragments)
        self._execute(work)
        for ctx in contexts:
            self._finish_context(ctx)
        return contexts

    # ------------------------------------------------------------------

    def _finish_context(self, ctx: CompilationContext) -> None:
        started = time.monotonic()
        GraphPass().run(ctx)
        ctx.record_pass_time(GraphPass.name, time.monotonic() - started)

    def _populate(self, ctx: CompilationContext) -> None:
        if ctx.fragments:
            return  # already identified (caller pre-seeded the context)
        func = ctx.program.function(ctx.function)
        ctx.fragments = [
            FragmentState(fragment=f) for f in identify_fragments(func)
        ]

    def _execute(
        self, work: list[tuple[CompilationContext, FragmentState]]
    ) -> None:
        if len(work) <= 1 or self.max_workers <= 1:
            for ctx, state in work:
                run_passes(self.passes, ctx, state)
            return
        workers = min(self.max_workers, len(work))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_passes, self.passes, ctx, state)
                for ctx, state in work
            ]
            for future in futures:
                future.result()  # propagate unexpected pass errors

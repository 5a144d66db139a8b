"""Fragment scheduler: runs each fragment's pass chain on the caller's thread.

A compile identifies the function's candidate fragments and runs each
one's pass chain (analyze → synthesize → verify-attach → codegen → plan)
in fragment order, then builds the whole-program job graph.  Every pass
is pure-Python CPU work, so a thread pool over fragments shared one GIL
and bought nothing (DESIGN.md, "Forks measured and removed, part 2").
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..lang.analysis.fragments import identify_fragments
from .context import CompilationContext, FragmentState
from .passes import CompilerPass, GraphPass, default_passes, run_passes


class PassPipeline:
    """Drives a compilation context through an ordered pass sequence."""

    def __init__(self, passes: Optional[Sequence[CompilerPass]] = None):
        self.passes: Sequence[CompilerPass] = (
            tuple(passes) if passes is not None else tuple(default_passes())
        )

    def run(self, ctx: CompilationContext) -> CompilationContext:
        """Compile one context: identify fragments, run every pass chain."""
        if not ctx.fragments:  # else the caller pre-seeded the context
            func = ctx.program.function(ctx.function)
            ctx.fragments = [
                FragmentState(fragment=f) for f in identify_fragments(func)
            ]
        for state in ctx.fragments:
            run_passes(self.passes, ctx, state)
        started = time.monotonic()
        GraphPass().run(ctx)
        ctx.record_pass_time(GraphPass.name, time.monotonic() - started)
        return ctx

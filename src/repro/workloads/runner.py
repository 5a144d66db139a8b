"""Benchmark runner: compile, execute, and compare against sequential.

Produces the per-benchmark rows behind Tables 1-2 and Figures 7/9:
fragments identified and translated, compile statistics, sequential vs
distributed simulated runtimes, and the resulting speedup at a chosen
dataset scale (75 GB-equivalent by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..compiler import CasperCompiler, CompilationResult
from ..engine.config import EngineConfig
from ..engine.sequential import run_sequential
from ..engine.sizes import dataset_bytes
from ..errors import ReproError
from ..graph.executor import interpret_fragment, interpret_reference
from ..lang.values import values_equal
from ..options import ExecOptions
from ..planner.dag import GraphPlanReport
from ..planner.plan import PlanReport
from ..session import Session
from ..synthesis.search import SearchConfig
from .registry import Benchmark

#: Simulated dataset target: the paper's largest dataset is 75 GB.
TARGET_BYTES_75GB = 75e9


@dataclass
class BenchmarkRun:
    """Results of compiling + running one benchmark."""

    benchmark: Benchmark
    compilation: CompilationResult
    fragments_identified: int = 0
    fragments_translated: int = 0
    sequential_seconds: float = 0.0
    distributed_seconds: float = 0.0
    bytes_emitted: int = 0
    bytes_shuffled: int = 0
    outputs_match: bool = True
    scale: float = 1.0
    #: Execution plan requested for fragment runs (None → the default
    #: framework, :data:`~repro.planner.plan.DEFAULT_BACKEND`).
    plan: Optional[str] = None
    #: One report per translated fragment execution, in fragment order.
    plan_reports: list[PlanReport] = field(default_factory=list)
    #: Real wall-clock seconds spent executing fragments (all backends).
    wall_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        if self.distributed_seconds <= 0:
            return 0.0
        return self.sequential_seconds / self.distributed_seconds

    @property
    def translated(self) -> bool:
        return self.fragments_translated > 0


def compile_benchmark(
    benchmark: Benchmark,
    search_config: Optional[SearchConfig] = None,
    compiler: Optional[CasperCompiler] = None,
) -> CompilationResult:
    """Run the Casper pipeline on one benchmark program.

    Pass either a pre-configured ``compiler`` or a ``search_config`` —
    not both; silently ignoring the config would hand back a result
    compiled under settings the caller didn't ask for.
    """
    if compiler is not None:
        if search_config is not None:
            raise ValueError("pass either compiler or search_config, not both")
    else:
        compiler = CasperCompiler(search_config=search_config or SearchConfig())
    return compiler.translate(benchmark.parse(), benchmark.function)


def data_bytes(benchmark: Benchmark, inputs: dict[str, Any]) -> int:
    total = 0
    for name in benchmark.data_args:
        dataset = inputs.get(name)
        if isinstance(dataset, list):
            total += dataset_bytes(dataset)
    return max(total, 1)


def run_benchmark(
    benchmark: Benchmark,
    size: int = 20_000,
    seed: int = 7,
    target_bytes: float = TARGET_BYTES_75GB,
    search_config: Optional[SearchConfig] = None,
    compilation: Optional[CompilationResult] = None,
    plan: Optional[str] = None,
) -> BenchmarkRun:
    """Compile (optionally reusing a compilation) and run a benchmark.

    The engine's ``scale`` is set so the generated dataset stands in for
    ``target_bytes`` of input, and both sequential and distributed
    simulated times are extrapolated consistently.  The fragments run
    as jobs of a session built with ``EngineConfig(scale=...)``, so a
    shared ``compilation`` is only read: one compilation can be priced
    at every size.

    ``plan`` is forwarded to each fragment execution (a framework name
    prices the run on it, ``"auto"`` lets the execution planner pick
    sequential vs the real multiprocess backend, ``None`` runs the
    default framework); the resulting
    :class:`~repro.planner.plan.PlanReport` per fragment lands in
    ``BenchmarkRun.plan_reports``.
    """
    if compilation is None:
        compilation = compile_benchmark(benchmark, search_config)

    inputs = benchmark.make_inputs(size, seed)
    scale = target_bytes / data_bytes(benchmark, inputs)

    program = benchmark.parse()
    args = benchmark.args_for(inputs)
    data_indexes = [
        i
        for i, param in enumerate(program.function(benchmark.function).params)
        if param.name in benchmark.data_args
    ]
    sequential = run_sequential(
        program,
        benchmark.function,
        args,
        data_arg_indexes=data_indexes,
        scale=scale,
    )

    run = BenchmarkRun(
        benchmark=benchmark,
        compilation=compilation,
        fragments_identified=compilation.identified,
        fragments_translated=compilation.translated,
        sequential_seconds=sequential.simulated_seconds,
        scale=scale,
        plan=plan,
    )
    if compilation.translated == 0:
        return run

    total_seconds = 0.0
    outputs_ok = True
    fresh_inputs = benchmark.make_inputs(size, seed)
    # Fragment executions go through an inline (max_workers=0) Session:
    # the same submit path the daemon uses, with each job's plan report
    # delivered on its JobResult instead of read back from shared state.
    session = Session(max_workers=0, engine_config=EngineConfig(scale=scale))
    options = ExecOptions(plan=plan)
    for index, fragment in enumerate(compilation.fragments):
        if not fragment.translated:
            # An untranslated fragment still runs in the source program;
            # interpret it so its outputs chain forward to the fragments
            # after it, as a strict=False whole-program job does.
            if fragment.analysis is not None:
                fresh_inputs.update(
                    interpret_fragment(fragment.analysis, fresh_inputs)
                )
            continue
        job = session.run(compilation, fresh_inputs, options, fragment_index=index)
        if not job.ok:
            outputs_ok = False
            continue
        outputs = job.outputs
        run.plan_reports.append(job.plan_report)
        metrics = job.metrics
        if metrics is not None:
            # Each translated fragment is its own job, re-reading its
            # input (Casper's generated code does not share or cache
            # scans across fragments — the source of its Q17 loss,
            # section 7.2).
            total_seconds += metrics.simulated_seconds
            run.bytes_emitted += metrics.bytes_emitted
            run.bytes_shuffled += metrics.bytes_shuffled
            run.wall_seconds += metrics.wall_seconds
        # Verify the fragment's outputs against the interpreter.
        outputs_ok = outputs_ok and _check_outputs(
            fragment, benchmark, fresh_inputs, outputs
        )
        # Chain: later fragments may consume earlier outputs (PageRank's
        # contribs loop reads outdeg).
        fresh_inputs.update(outputs)

    run.distributed_seconds = total_seconds
    run.outputs_match = outputs_ok
    return run


@dataclass
class GraphBenchmarkRun:
    """Results of running one benchmark as a whole-program job graph."""

    benchmark: Benchmark
    compilation: CompilationResult
    outputs: dict[str, Any]
    #: The job's evidence trail: waves, fusion decisions, unit reports.
    report: GraphPlanReport
    #: Graph outputs equal the chained reference-interpreter outputs
    #: (compared over the variables both sides materialize).
    outputs_match: bool = True

    @property
    def wall_seconds(self) -> float:
        return self.report.wall_seconds

    @property
    def simulated_seconds(self) -> float:
        return self.report.simulated_seconds


def run_benchmark_graph(
    benchmark: Benchmark,
    size: int = 20_000,
    seed: int = 7,
    plan: Optional[str] = None,
    fuse: bool = True,
    strict: bool = False,
    compilation: Optional[CompilationResult] = None,
) -> GraphBenchmarkRun:
    """Compile (optionally reusing a compilation) and run via the job graph.

    This is the whole-program counterpart of :func:`run_benchmark`: one
    whole-program Session job instead of a per-fragment loop, verified
    against the chained reference-interpreter semantics.  ``fuse=False``
    keeps the DAG scheduling but disables chain stitching — the unfused
    baseline the fusion benchmarks compare against.
    """
    if compilation is None:
        compilation = compile_benchmark(benchmark)
    inputs = benchmark.make_inputs(size, seed)
    session = Session(max_workers=0)
    job = session.run(
        compilation,
        dict(inputs),
        ExecOptions(plan=plan, fuse=fuse, strict=strict),
    )
    if not job.ok:
        raise RuntimeError(
            f"graph run of {benchmark.name!r} failed: {job.error}"
        )
    outputs = job.outputs
    expected = interpret_reference(compilation.job_graph, dict(inputs))
    # A silently-dropped output must fail the comparison, not shrink it:
    # every final variable the reference produced has to be delivered.
    required = set(compilation.job_graph.final_vars) & set(expected)
    matched = required <= set(outputs) and all(
        values_equal(outputs[name], expected[name])
        for name in set(outputs) & set(expected)
    )
    return GraphBenchmarkRun(
        benchmark=benchmark,
        compilation=compilation,
        outputs=outputs,
        report=job.plan_report,
        outputs_match=matched,
    )


def _check_outputs(
    fragment, benchmark: Benchmark, inputs: dict[str, Any], outputs: dict[str, Any]
) -> bool:
    """Compare fragment outputs with the sequential interpreter's."""
    from ..verification.bounded import ProgramState, run_sequential_fragment

    analysis = fragment.analysis
    try:
        state = ProgramState(
            {name: inputs[name] for name in analysis.input_vars if name in inputs}
        )
        expected = run_sequential_fragment(analysis, state)
    except ReproError:
        return False  # the reference faulted: unchecked is never a match
    return all(
        values_equal(outputs.get(name), expected.outputs.get(name))
        for name in analysis.output_vars
    )

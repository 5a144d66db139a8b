"""Differential counter sweep: production accounts like rows, every suite.

The production path — the compiled kernels, and the vector kernel over
a folded map segment's columns — must hold one property against the
row-at-a-time oracle (:meth:`GeneratedProgram.oracle_steps`): for
every translated fragment of every benchmark suite the production run's
outputs equal the oracle's *exactly*, and so do its per-stage counters

    records_in, records_out, bytes_out, bytes_shuffled

— the vectorized path never materializes the pair tuples it charges
for, so ``ColumnBlock.stage_bytes`` / ``shuffle_bytes`` have to price
them byte-for-byte as ``sizeof`` would.  The sweep mirrors
:mod:`tests.test_kernels`: all suites on the sequential backend,
representative suites on the multiprocess pool, the spill-to-disk path,
and the fused graph executor; and every fragment whose vectorizable
stage no sum/min/max combiner folds, on each of those paths with
``columnar_chunks == 0``.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest

from differential import (
    RUN_SIZE,
    compiled,
    outputs_match as _match,
    run_oracle,
    stage_counters,
    sweep,
    translated_fragments as _translated_fragments,
)
from repro import ExecOptions
from repro.codegen.base import GeneratedProgram, prepare_globals, view_records
from repro.engine.multiprocess import MultiprocessEngine, ReduceStep
from repro.graph.executor import interpret_fragment
from repro.lang.values import values_equal
from repro.planner.plan import forced_plan
from repro.workloads import all_benchmarks, get_benchmark

# ----------------------------------------------------------------------
# Sequential: every suite, production vs oracle, exact equality (the
# same pass test_kernels reads — each benchmark compiles and runs once)


@pytest.mark.parametrize(
    "name", [b.name for b in all_benchmarks()], ids=lambda n: n
)
def test_columns_match_rows_and_interpreter(name):
    for ran in sweep(name):
        assert _match(ran.production, ran.reference), f"{name}: columns != interpreter"
        # The column path shares the oracle's fold order (or the guards
        # refuse the array path), so they agree *exactly*.
        assert ran.production == ran.oracle, f"{name}: columns != row oracle"
        assert ran.production_counters == ran.oracle_counters, (
            f"{name}: column-block byte accounting drifted from the row oracle"
        )


# ----------------------------------------------------------------------
# Pool, spill, and fused-graph backends: representative suites

_BACKEND_CASES = [
    "ariths_sum",            # vectorized int sum, const key
    "stats_variance_sums",   # multi-emit float fold (row fallback)
    "phoenix_wordcount",     # string keys, never columnar
    "fiji_threshold",        # map-only, int keyed emits
    "tpch_q6",               # conditional emit, struct projection
]


@pytest.mark.parametrize("name", _BACKEND_CASES, ids=lambda n: n)
def test_columns_on_pool_and_spill_backends(name):
    benchmark = get_benchmark(name)
    compilation = compiled(name)
    inputs = benchmark.make_inputs(RUN_SIZE, 11)

    fragment = _translated_fragments(compilation)[0]
    program = fragment.program.programs[0]
    reference = interpret_fragment(fragment.analysis, dict(inputs))

    pooled = fragment.program.run(dict(inputs), ExecOptions(plan="multiprocess"))
    assert _match(pooled.outputs, reference), f"{name}: pooled columns != interpreter"
    _oracle, oracle_metrics = run_oracle(
        program, dict(inputs), forced_plan("multiprocess")
    )
    assert stage_counters(pooled.metrics) == stage_counters(oracle_metrics)

    budgeted = forced_plan("sequential", memory_budget=4096)
    outcome = fragment.program.run(
        dict(inputs), ExecOptions(plan="sequential", memory_budget=4096)
    )
    spilled, report = outcome.outputs, outcome.plan_report
    assert report.plan.spill, f"{name}: budget did not engage the spill path"
    assert _match(spilled, reference), f"{name}: spilled columns != interpreter"
    oracle, oracle_metrics = run_oracle(program, dict(inputs), budgeted)
    assert spilled == oracle, f"{name}: spilled columns != spilled row oracle"
    assert stage_counters(outcome.metrics) == stage_counters(oracle_metrics)


def test_columns_through_fused_graph():
    from repro.graph import interpret_reference, run_graph

    compilation = compiled("tpch_q1")
    benchmark = get_benchmark("tpch_q1")
    inputs = benchmark.make_inputs(RUN_SIZE, 3)
    reference = interpret_reference(compilation.job_graph, dict(inputs))
    graph = compilation.job_graph
    fused = run_graph(graph, dict(inputs), ExecOptions(plan="sequential")).outputs
    unfused = run_graph(
        graph, dict(inputs), ExecOptions(plan="sequential", fuse=False)
    ).outputs
    assert fused == unfused, "fused graph: spliced column path != per-fragment"
    common = set(fused) & set(reference)
    assert common, "graph run produced nothing comparable"
    assert all(values_equal(fused[k], reference[k]) for k in common)


# ----------------------------------------------------------------------
# One vector path: a stage no sum/min/max combiner folds runs the row
# loop, equal to the oracle on every path, and never vectorizes

#: Every suite fragment (``benchmark#index`` in ``compilation.fragments``)
#: whose first stage vectorizes but no sum/min/max combiner folds it:
#: element maps, filters and projections, whose vector path measured
#: within 1.1× of the row loop or slower (DESIGN.md, "One vector path").
_UNFOLDED_VECTOR_STAGES = [
    ("stats_vector_add", 0),
    ("stats_vector_scale", 0),
    ("stats_hadamard", 0),
    ("biglambda_select_sum", 0),
    ("fiji_red_to_magenta", 0),
    ("biglambda_project", 0),
    ("fiji_invert", 0),
    ("fiji_red_to_magenta", 1),
    ("fiji_threshold", 0),
]


def _fragment_env(name: str, index: int):
    """Fragment ``index`` of ``name`` and its input environment, earlier
    fragments' reference outputs chained forward."""
    compilation = compiled(name)
    env = dict(get_benchmark(name).make_inputs(RUN_SIZE, 7))
    for fragment in compilation.fragments[:index]:
        if fragment.analysis is not None:
            env.update(interpret_fragment(fragment.analysis, env))
    return compilation.fragments[index], env


@pytest.mark.parametrize("name, index", _UNFOLDED_VECTOR_STAGES, ids=str)
def test_unfolded_vector_stages_run_the_row_loop(name, index):
    fragment, env = _fragment_env(name, index)
    engines = {
        "sequential": MultiprocessEngine(processes=0),
        "sequential+4k": MultiprocessEngine(processes=0, memory_budget=4096),
        "pool": MultiprocessEngine(processes=2, min_parallel_records=1),
    }
    for program in fragment.program.programs:
        globals_env, _sizes = prepare_globals(program.analysis, env)
        records = view_records(program.analysis.view, env)
        assert program.local_steps(globals_env)[0].fn.vectorized
        for label, engine in engines.items():
            production = engine.run_pipeline(records, program.local_steps(globals_env))
            oracle = engine.run_pipeline(records, program.oracle_steps(globals_env))
            counters = stage_counters(production.metrics)
            assert production.pairs == oracle.pairs, label
            assert counters == stage_counters(oracle.metrics), label
            assert production.spill_stats == oracle.spill_stats, label
            assert production.columnar_stats() is None, label
            assert label != "pool" or production.map_tasks > 0


@pytest.mark.parametrize(
    "name", sorted({name for name, _index in _UNFOLDED_VECTOR_STAGES})
)
def test_unfolded_vector_stages_in_the_fused_graph(name):
    from repro.graph import run_graph

    compilation = compiled(name)
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    indices = {index for other, index in _UNFOLDED_VECTOR_STAGES if other == name}
    nodes = {n.id for n in compilation.job_graph.nodes.values() if n.index in indices}
    for options in (
        ExecOptions(plan="sequential"),
        ExecOptions(plan="sequential", memory_budget=4096),
    ):
        ran = run_graph(compilation.job_graph, dict(inputs), options)
        with mock.patch.object(
            GeneratedProgram, "local_steps", GeneratedProgram.oracle_steps
        ):
            oracle = run_graph(compilation.job_graph, dict(inputs), options)
        assert ran.outputs == oracle.outputs
        # Per unit: a counted unit beside them spills fewer pairs than
        # the oracle by design, so the graph's seconds are not compared.
        report, oracle_report = ran.plan_report, oracle.plan_report
        heads = nodes & set(report.unit_reports)  # a fused-away node heads no unit
        assert heads
        for head in heads:
            unit = report.unit_reports[head]
            assert unit.columnar is None, head
            assert unit.spill_stats == oracle_report.unit_reports[head].spill_stats


def test_budgeted_unfolded_vector_stage_spills_its_rows():
    """A vectorizable stage with its combiner off under a budget runs the
    row loop and spills what the oracle spills: no column block reaches
    the spill store."""
    name = "ariths_sum"
    fragment = _translated_fragments(compiled(name))[0]
    program = fragment.program.programs[0]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    globals_env, _sizes = prepare_globals(program.analysis, inputs)
    records = view_records(program.analysis.view, inputs)

    def combiner_off(steps):
        return [
            replace(step, combine=False) if isinstance(step, ReduceStep) else step
            for step in steps
        ]

    steps = combiner_off(program.local_steps(globals_env))
    assert steps[0].fn.vectorized and not steps[-1].combine
    engine = MultiprocessEngine(processes=0, memory_budget=1024)
    production = engine.run_pipeline(records, steps)
    oracle = engine.run_pipeline(
        records, combiner_off(program.oracle_steps(globals_env))
    )
    assert production.spill_stats["spill_runs"] > 0
    assert production.pairs == oracle.pairs
    assert stage_counters(production.metrics) == stage_counters(oracle.metrics)
    assert production.spill_stats == oracle.spill_stats
    assert production.columnar_stats() is None

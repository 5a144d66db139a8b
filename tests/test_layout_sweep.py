"""Differential counter sweep: column chunks account like rows, every suite.

There is one chunk layout — column chunks under the compiled kernels —
so what this sweep pins is the property that layout must hold against
the row-at-a-time oracle (:meth:`GeneratedProgram.oracle_steps`): for
every translated fragment of every benchmark suite the production run's
outputs equal the oracle's *exactly*, and so do its per-stage counters

    records_in, records_out, bytes_out, bytes_shuffled

— the vectorized path never materializes the pair tuples it charges
for, so ``ColumnBlock.stage_bytes`` / ``shuffle_bytes`` have to price
them byte-for-byte as ``sizeof`` would.  The sweep mirrors
:mod:`tests.test_kernels`: all suites on the sequential backend,
representative suites on the multiprocess pool, the spill-to-disk path,
and the fused graph executor.
"""

from __future__ import annotations

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
    spilled, report = outcome.outputs, outcome.report
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

"""Differential layout sweep: rows == columns, every suite, every backend.

The acceptance property of the columnar chunk layout
(:mod:`repro.engine.columnar`): for every translated fragment of every
benchmark suite,

    layout="columns" == layout="rows" == the reference interpreter,

*exactly* — the vectorized fast path, the grouped array folds, and the
column-wise shuffle either reproduce the row engine's fold order
bit-for-bit or trip a guard and fall back to the row loop.  The sweep
mirrors :mod:`tests.test_kernels`: all suites on the sequential backend,
representative suites on the multiprocess pool, the spill-to-disk path,
and the fused graph executor.
"""

from __future__ import annotations

import pytest

from differential import (
    RUN_SIZE,
    compiled,
    outputs_match as _match,
    sweep,
    translated_fragments as _translated_fragments,
)
from repro import ExecOptions
from repro.graph.executor import interpret_fragment
from repro.lang.values import values_equal
from repro.workloads import all_benchmarks, get_benchmark

# ----------------------------------------------------------------------
# Sequential: every suite, rows vs columns, exact equality (the same
# pass test_kernels reads — each benchmark compiles and runs once)


@pytest.mark.parametrize(
    "name", [b.name for b in all_benchmarks()], ids=lambda n: n
)
def test_columns_match_rows_and_interpreter(name):
    for ran in sweep(name):
        assert _match(ran.columns, ran.reference), f"{name}: columns != interpreter"
        # Rows and columns share fold order (or the guards refuse the
        # array path), so they agree *exactly*, not within tolerance.
        assert ran.rows == ran.columns, f"{name}: columns != rows"


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
    reference = interpret_fragment(fragment.analysis, dict(inputs))

    pooled = fragment.program.run(
        dict(inputs),
        ExecOptions(plan="multiprocess", kernel="compiled", layout="columns"),
    ).outputs
    assert _match(pooled, reference), f"{name}: pooled columns != interpreter"

    outcome = fragment.program.run(
        dict(inputs),
        ExecOptions(
            plan="sequential",
            memory_budget=4096,
            kernel="compiled",
            layout="columns",
        ),
    )
    spilled, report = outcome.outputs, outcome.report
    assert report.plan.spill, f"{name}: budget did not engage the spill path"
    assert _match(spilled, reference), f"{name}: spilled columns != interpreter"
    assert report.summary()["layout"] == "columns"


def test_columns_through_fused_graph():
    from repro.compiler import run_program
    from repro.graph import interpret_reference
    from repro.options import ExecOptions

    compilation = compiled("tpch_q1")
    benchmark = get_benchmark("tpch_q1")
    inputs = benchmark.make_inputs(RUN_SIZE, 3)
    reference = interpret_reference(compilation.job_graph, dict(inputs))
    by_rows = run_program(
        compilation,
        dict(inputs),
        ExecOptions(plan="sequential", kernel="compiled", layout="rows"),
    )
    by_cols = run_program(
        compilation,
        dict(inputs),
        ExecOptions(
            plan="sequential",
            kernel="compiled",
            layout="columns",
        ),
    )
    assert by_rows == by_cols, "fused graph: columns != rows"
    common = set(by_cols) & set(reference)
    assert common, "graph run produced nothing comparable"
    assert all(values_equal(by_cols[k], reference[k]) for k in common)

"""Compiled-kernel throughput benchmarks: evaluator oracle vs generated source.

Two claims:

1. **Identity** — on every measured benchmark the compiled kernel's map
   output equals the evaluator oracle's, pair for pair, and the
   end-to-end fragment results agree.  Gated unconditionally: a faster kernel that
   answers differently is a bug, not a speedup.
2. **Throughput** — the generated-source batch kernel processes records
   at least ``MIN_KERNEL_SPEEDUP``× faster than the per-record
   tree-walking evaluator on at least one map-heavy benchmark.  Gated
   under ``BENCH_STRICT`` (valid on single-CPU hosts: both kernels run
   in-process on the same core).
"""

from __future__ import annotations

import os
import time

from conftest import compiled
from differential import run_oracle
from repro import ExecOptions
from repro.codegen.base import prepare_globals, view_records
from repro.planner.plan import forced_plan
from repro.workloads import get_benchmark

KERNEL_SIZE = 50_000
#: Map-heavy cases across suites; at least one must clear the gate.
KERNEL_BENCHMARKS = [
    "ariths_sum",           # trivial projection — vectorized numpy path
    "fiji_threshold",       # map-only conditional emit
    "stats_variance_sums",  # two emits per record
    "tpch_q6",              # struct fields + compound filter
]

STRICT = bool(os.environ.get("BENCH_STRICT"))
MIN_KERNEL_SPEEDUP = 3.0


def _map_fns(name: str, size: int):
    """The first map stage's oracle fn, compiled fn, and its records."""
    compilation = compiled(name)
    fragment = next(f for f in compilation.fragments if f.translated)
    program = fragment.program.programs[0]
    benchmark = get_benchmark(name)
    inputs = benchmark.make_inputs(size, 7)
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    records = view_records(fragment.analysis.view, inputs)
    eval_fn = program.oracle_steps(globals_env)[0].fn
    compiled_fn = program.local_steps(globals_env)[0].fn
    return eval_fn, compiled_fn, records


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class TestKernelThroughput:
    def test_compiled_beats_eval_per_record(self, table_printer):
        rows = []
        speedups = {}
        for name in KERNEL_BENCHMARKS:
            eval_fn, compiled_fn, records = _map_fns(name, KERNEL_SIZE)
            assert hasattr(compiled_fn, "map_chunk"), (
                f"{name}: compiled kernel did not engage "
                f"(got {type(compiled_fn).__name__})"
            )

            expected = [pair for record in records for pair in eval_fn(record)]
            actual = compiled_fn.map_chunk(records)
            assert actual == expected, f"{name}: compiled map output diverges"

            eval_s = _best_of(
                3, lambda: [eval_fn(record) for record in records]
            )
            compiled_s = _best_of(3, lambda: compiled_fn.map_chunk(records))
            speedup = eval_s / compiled_s if compiled_s else float("inf")
            speedups[name] = speedup
            rows.append(
                [
                    name,
                    f"{len(records):,}",
                    f"{eval_s * 1e6 / len(records):.2f}",
                    f"{compiled_s * 1e6 / len(records):.2f}",
                    f"{speedup:.2f}×",
                    getattr(compiled_fn, "vectorized", False),
                ]
            )
        table_printer(
            f"Per-record map throughput, eval vs compiled ({KERNEL_SIZE:,} records)",
            ["benchmark", "records", "eval_us/rec", "compiled_us/rec", "speedup", "numpy"],
            rows,
        )
        if STRICT:
            best = max(speedups.values())
            assert best >= MIN_KERNEL_SPEEDUP, (
                f"no benchmark cleared {MIN_KERNEL_SPEEDUP}× "
                f"(best {best:.2f}×: {speedups})"
            )

    def test_end_to_end_identity_at_bench_size(self):
        for name in KERNEL_BENCHMARKS:
            compilation = compiled(name)
            fragment = next(f for f in compilation.fragments if f.translated)
            benchmark = get_benchmark(name)
            inputs = benchmark.make_inputs(KERNEL_SIZE, 7)
            out_eval, _metrics = run_oracle(
                fragment.program.programs[0], dict(inputs), forced_plan("sequential")
            )
            out_compiled = fragment.program.run(
                dict(inputs), ExecOptions(plan="sequential")
            ).outputs
            assert out_eval == out_compiled, f"{name}: kernels disagree"

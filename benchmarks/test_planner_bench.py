"""Planner + multiprocess backend benchmarks (this reproduction's own).

Three claims are exercised here:

1. **Identity** — the real multiprocess backend produces results
   identical to the in-process engines on every translated fragment of
   all seven workload suites (chained fragment-by-fragment exactly like
   the runner).
2. **Pooled identity** — with the worker pool actually engaged
   (forced ``processes=2``), results still match byte for byte.
3. **Speedup** — on a multi-core machine, ``plan="auto"`` picks the
   multiprocess backend for a large input and beats always-sequential
   wall-clock by ≥2× (skipped below 4 cores, where the pool cannot
   demonstrate parallel gain).
"""

from __future__ import annotations

import os

import pytest

from conftest import compiled
from repro import ExecOptions
from repro.engine.multiprocess import default_process_count
from repro.lang.values import values_equal
from repro.planner.plan import ExecutionPlan
from repro.workloads import all_benchmarks, get_benchmark

IDENTITY_SIZE = 1500
POOLED_SIZE = 6000
SPEEDUP_SIZE = 400_000


def _chained_runs(benchmark, size):
    """Run each translated fragment in-process, yielding (fragment, inputs)
    snapshots with the runner's chaining semantics."""
    compilation = compiled(benchmark.name)
    inputs = benchmark.make_inputs(size, 7)
    for fragment in compilation.fragments:
        if not fragment.translated:
            continue
        snapshot = dict(inputs)
        try:
            outputs = fragment.program.run(snapshot).outputs
        except Exception:
            continue  # chained inputs missing — the runner skips these too
        yield fragment, snapshot, outputs
        inputs.update(outputs)


#: Per-benchmark fragment-comparison counts, filled by the parametrized
#: identity test and sanity-checked by the aggregate test below it.
_IDENTITY_CHECKED: dict[str, int] = {}


class TestMultiprocessIdentity:
    @pytest.mark.parametrize("name", [b.name for b in all_benchmarks()], ids=str)
    def test_matches_in_process_engine(self, name):
        benchmark = get_benchmark(name)
        checked = 0
        for fragment, snapshot, expected in _chained_runs(benchmark, IDENTITY_SIZE):
            actual = fragment.program.run(
                snapshot, ExecOptions(plan="multiprocess")
            ).outputs
            if fragment.analysis is not None and fragment.analysis.join is not None:
                # Physical join strategies (simulated-spark shuffle join
                # vs local broadcast) legitimately re-associate float
                # accumulation, so join fragments compare with the
                # structural float-tolerant equality; everything else
                # stays byte-exact.
                assert set(actual) == set(expected) and all(
                    values_equal(actual[k], expected[k]) for k in expected
                ), (
                    f"{name}: multiprocess outputs diverge for fragment "
                    f"{fragment.fragment.id}"
                )
            else:
                assert actual == expected, (
                    f"{name}: multiprocess outputs diverge for fragment "
                    f"{fragment.fragment.id}"
                )
            checked += 1
        _IDENTITY_CHECKED[name] = checked

    def test_every_suite_was_actually_compared(self):
        # Runs after the parametrized sweep (pytest preserves definition
        # order).  Under -k filters or xdist the sweep may be partial —
        # then this aggregate check has nothing sound to say, so skip.
        if set(_IDENTITY_CHECKED) != {b.name for b in all_benchmarks()}:
            pytest.skip("identity sweep was partial (filtered or distributed)")
        per_suite: dict[str, int] = {}
        for benchmark in all_benchmarks():
            per_suite[benchmark.suite] = (
                per_suite.get(benchmark.suite, 0)
                + _IDENTITY_CHECKED[benchmark.name]
            )
        assert len(per_suite) == 8, sorted(per_suite)
        assert all(count > 0 for count in per_suite.values()), per_suite

    @pytest.mark.parametrize("name", ["phoenix_wordcount", "tpch_q6"])
    def test_pooled_workers_match_in_process_engine(self, name):
        benchmark = get_benchmark(name)
        for fragment, snapshot, expected in _chained_runs(benchmark, POOLED_SIZE):
            program = fragment.program.programs[0]
            plan = ExecutionPlan(backend="multiprocess", processes=2)
            outcome = program.run(snapshot, backend="multiprocess", plan=plan)
            reference = program.run(snapshot)
            assert outcome.outputs == reference.outputs
            assert outcome.fallback_reason is None, outcome.fallback_reason


#: The hard ≥2× bound only applies when BENCH_STRICT is set (CI's bench
#: job, a dedicated runner).  In the shared tests matrix a noisy
#: neighbour can eat the parallel margin, so there the test still runs
#: the full comparison but only asserts sanity — the plan must choose
#: and engage the pool, and the pool must not *lose* outright.
STRICT = bool(os.environ.get("BENCH_STRICT"))
MIN_SPEEDUP = 2.0 if STRICT else 0.8


@pytest.mark.skipif(
    default_process_count() < 4,
    reason="parallel speedup needs ≥4 cores (pool cannot win on fewer)",
)
class TestAutoPlanSpeedup:
    def test_auto_beats_always_sequential_2x(self, table_printer):
        benchmark = get_benchmark("stats_correlation_sums")
        compilation = compiled("stats_correlation_sums")
        fragment = next(f for f in compilation.fragments if f.translated)
        inputs = benchmark.make_inputs(SPEEDUP_SIZE, 7)

        outcome = fragment.program.run(dict(inputs), ExecOptions(plan="sequential"))
        seq_outputs, seq_report = outcome.outputs, outcome.report
        outcome = fragment.program.run(dict(inputs), ExecOptions(plan="auto"))
        auto_outputs, auto_report = outcome.outputs, outcome.report

        table_printer(
            "Planner speedup (stats_correlation_sums, "
            f"{SPEEDUP_SIZE:,} records, {default_process_count()} cores)",
            ["plan", "backend", "wall_s"],
            [
                ["sequential", "sequential", f"{seq_report.wall_seconds:.3f}"],
                [
                    "auto",
                    auto_report.backend_used,
                    f"{auto_report.wall_seconds:.3f}",
                ],
            ],
        )
        assert auto_outputs == seq_outputs
        assert auto_report.plan.backend == "multiprocess", auto_report.plan.reasons
        assert auto_report.fallback_reason is None
        speedup = seq_report.wall_seconds / auto_report.wall_seconds
        assert speedup >= MIN_SPEEDUP, (
            f"plan='auto' only {speedup:.2f}× vs always-sequential "
            f"(bound {MIN_SPEEDUP}×, strict={STRICT})"
        )

"""Planner + multiprocess backend benchmarks (this reproduction's own).

Three claims are exercised here:

1. **Identity** — the real multiprocess backend produces results
   identical to the in-process engines on every translated fragment of
   all seven workload suites (chained fragment-by-fragment exactly like
   the runner).
2. **Pooled identity** — with the worker pool actually engaged
   (forced ``processes=2``), results still match byte for byte.
3. **The choice** — ``plan="auto"``'s wall is within a stated factor
   of the better of forced ``sequential`` and forced ``multiprocess`` on
   a large input, outputs equal (runs from 2 cores; it does not assert
   *which* backend wins — the compiled kernels made the old "the pool
   wins 2×" claim false on most hosts).
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
            fallback = outcome.engine_result.fallback_reason
            assert fallback is None, fallback


#: What ``plan="auto"`` owes: a wall within this factor of the better of
#: the two forced local backends.  The tight factor only applies when
#: BENCH_STRICT is set (CI's bench job, a dedicated runner); in the
#: shared tests matrix a noisy neighbour can eat a quarter of a run, so
#: there the comparison still runs in full against the looser bound.
STRICT = bool(os.environ.get("BENCH_STRICT"))
WITHIN_BEST = 1.25 if STRICT else 1.6
REPEATS = 3


@pytest.mark.skipif(
    default_process_count() < 2,
    reason="one CPU: the pool cannot run, there is no second backend to compare",
)
class TestAutoPlanWithinBest:
    def test_auto_is_within_a_factor_of_the_better_backend(self, table_printer):
        benchmark = get_benchmark("stats_correlation_sums")
        compilation = compiled("stats_correlation_sums")
        fragment = next(f for f in compilation.fragments if f.translated)
        inputs = benchmark.make_inputs(SPEEDUP_SIZE, 7)

        # Alternating rounds, best wall per plan: host drift lands on
        # all three alike.
        outputs, walls, reports = {}, {}, {}
        for _ in range(REPEATS):
            for plan in ("sequential", "multiprocess", "auto"):
                run = fragment.program.run(dict(inputs), ExecOptions(plan=plan))
                outputs[plan], reports[plan] = run.outputs, run.report
                walls[plan] = min(
                    run.report.wall_seconds, walls.get(plan, float("inf"))
                )

        auto = reports["auto"]
        table_printer(
            "Planner choice (stats_correlation_sums, "
            f"{SPEEDUP_SIZE:,} records, {default_process_count()} cores, "
            f"best of {REPEATS})",
            ["plan", "backend", "wall_s", "predicted_s"],
            [
                [
                    plan,
                    reports[plan].backend_used,
                    f"{walls[plan]:.3f}",
                    f"{auto.estimated_seconds[reports[plan].plan.backend]:.3f}",
                ]
                for plan in ("sequential", "multiprocess", "auto")
            ],
        )
        assert outputs["auto"] == outputs["sequential"] == outputs["multiprocess"]
        assert reports["multiprocess"].fallback_reason is None
        assert auto.fallback_reason is None
        best = min(walls["sequential"], walls["multiprocess"])
        assert walls["auto"] <= WITHIN_BEST * best, (
            f"plan='auto' chose {auto.plan.backend} and took {walls['auto']:.3f}s, "
            f"over {WITHIN_BEST}× the better forced backend ({best:.3f}s; "
            f"strict={STRICT}): {auto.plan.reasons}"
        )

"""Out-of-core (spill-to-disk) execution benchmarks.

Three claims:

1. **Identity** — with a memory budget small enough to force the
   external spill shuffle, every translated fragment of all eight
   workload suites produces results identical to the in-memory
   sequential engine.  Gated unconditionally: a spilled result that
   diverges is a correctness bug, not a perf regression.
2. **Bounded residency** — a generated dataset ≥10× the configured
   budget streams through the job graph with the spill engine while
   the engine's peak-resident proxy (sizeof-model bytes held in shuffle
   buffers and merge groups) stays within 2× the budget, and the output
   matches the in-memory engine byte for byte.
3. **Bounded slowdown** — spilling pays disk I/O; on ≥4-core hosts
   under ``BENCH_STRICT`` the spill path must stay within a constant
   factor of the in-memory wall clock (it is a scalability feature, not
   a free lunch — but it must not be pathological either).
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import compiled
from repro import ExecOptions
from repro.graph import run_graph
from repro.engine.multiprocess import default_process_count
from repro.workloads import all_benchmarks, datagen, get_benchmark

IDENTITY_SIZE = 1200
#: Small enough that every identity run's input exceeds it (forcing the
#: spill path) yet several records always fit.
IDENTITY_BUDGET = 2048

LARGE_BUDGET = 16_384
#: ~40 B per word → ≥ 20× the budget.
LARGE_RECORDS = 8_000

STRICT = bool(os.environ.get("BENCH_STRICT"))
MAX_SPILL_SLOWDOWN = 3.0


def _chained_runs(benchmark, size):
    """Chained fragment snapshots, mirroring the runner's semantics."""
    compilation = compiled(benchmark.name)
    inputs = benchmark.make_inputs(size, 7)
    for fragment in compilation.fragments:
        if not fragment.translated:
            continue
        snapshot = dict(inputs)
        try:
            outputs = fragment.program.run(
                snapshot, ExecOptions(plan="sequential")
            ).outputs
        except Exception:
            continue  # chained inputs missing — the runner skips these too
        yield fragment, snapshot, outputs
        inputs.update(outputs)


_IDENTITY_CHECKED: dict[str, int] = {}


class TestSpillIdentity:
    @pytest.mark.parametrize("name", [b.name for b in all_benchmarks()], ids=str)
    def test_spilled_matches_in_memory_engine(self, name):
        benchmark = get_benchmark(name)
        checked = 0
        for fragment, snapshot, expected in _chained_runs(benchmark, IDENTITY_SIZE):
            spilled = fragment.program.run(
                snapshot, ExecOptions(plan="sequential", memory_budget=IDENTITY_BUDGET)
            )
            assert spilled.outputs == expected, (
                f"{name}: spilled outputs diverge for fragment "
                f"{fragment.fragment.id}"
            )
            report = spilled.report
            assert report.plan.spill, (
                f"{name}: budget {IDENTITY_BUDGET} did not engage the "
                f"spill path ({report.plan.reasons})"
            )
            checked += 1
        _IDENTITY_CHECKED[name] = checked

    def test_every_suite_was_actually_compared(self):
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


class TestLargeScaleBoundedResidency:
    def test_10x_budget_dataset_bounded_and_identical(self, table_printer):
        benchmark = get_benchmark("phoenix_wordcount")
        compilation = compiled("phoenix_wordcount")

        words = datagen.large_scale(LARGE_RECORDS, seed=11, kind="words")
        dataset_bytes = words.estimated_bytes()
        assert dataset_bytes >= 10 * LARGE_BUDGET, (
            f"dataset {dataset_bytes} B is not ≥10× the {LARGE_BUDGET} B budget"
        )

        baseline = run_graph(
            compilation.job_graph,
            {"wordList": words.materialize()},
            ExecOptions(plan="sequential"),
        ).outputs
        started = time.perf_counter()
        spilled = run_graph(
            compilation.job_graph,
            {"wordList": words},
            ExecOptions(plan="auto", memory_budget=LARGE_BUDGET),
        )
        spill_wall = time.perf_counter() - started

        assert spilled.outputs == baseline
        report = spilled.report
        unit = next(iter(report.unit_reports.values()))
        assert unit.plan.spill, unit.plan.reasons
        stats = unit.spill_stats
        assert stats is not None and stats["spill_runs"] > 0
        peak = stats["peak_resident_bytes"]
        table_printer(
            f"Out-of-core run (wordcount, {LARGE_RECORDS:,} records, "
            f"budget {LARGE_BUDGET} B)",
            ["dataset_B", "budget_B", "peak_resident_B", "runs", "wall_s"],
            [
                [
                    dataset_bytes,
                    LARGE_BUDGET,
                    peak,
                    stats["spill_runs"],
                    f"{spill_wall:.3f}",
                ]
            ],
        )
        assert peak <= 2 * LARGE_BUDGET, (
            f"peak resident proxy {peak} B exceeds 2× the "
            f"{LARGE_BUDGET} B budget"
        )


@pytest.mark.skipif(
    default_process_count() < 4,
    reason="spill slowdown is bounded on ≥4-core hosts only (pool noise)",
)
class TestSpillSlowdownBound:
    def test_spill_within_constant_factor_of_in_memory(self, table_printer):
        benchmark = get_benchmark("phoenix_wordcount")
        compilation = compiled("phoenix_wordcount")
        inputs = benchmark.make_inputs(60_000, 7)

        started = time.perf_counter()
        graph = compilation.job_graph
        base = run_graph(graph, dict(inputs), ExecOptions(plan="sequential")).outputs
        base_wall = time.perf_counter() - started

        started = time.perf_counter()
        spilled = run_graph(
            graph,
            dict(inputs),
            ExecOptions(plan="sequential", memory_budget=65_536),
        ).outputs
        spill_wall = time.perf_counter() - started

        assert spilled == base
        slowdown = spill_wall / base_wall if base_wall else 1.0
        table_printer(
            "Spill slowdown (wordcount, 60k records)",
            ["in_memory_s", "spill_s", "slowdown"],
            [[f"{base_wall:.3f}", f"{spill_wall:.3f}", f"{slowdown:.2f}×"]],
        )
        if STRICT:
            assert slowdown <= MAX_SPILL_SLOWDOWN, (
                f"spill path {slowdown:.2f}× slower than in-memory "
                f"(bound {MAX_SPILL_SLOWDOWN}×)"
            )

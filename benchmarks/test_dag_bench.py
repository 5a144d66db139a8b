"""Job-graph benchmarks: fused DAG execution vs per-fragment baselines.

Two claims are exercised here:

1. **Identity** — the whole-program job (fused and unfused) matches the
   chained reference-interpreter semantics on every multi-stage
   benchmark, at benchmark sizes.
2. **Fusion pays** — on ``tpch_q15``'s fused barrier chain (the
   ``scan_vector`` bench program) the fused job runs strictly fewer
   Python calls than the unfused one on 2 CPUs, an exact count that
   host noise cannot move; and stitched chains beat the unfused
   per-fragment execution by ≥1.3× wall-clock on the multi-stage
   suites (skipped below 4 cores, like the planner's 2× gate: both
   sides run ``plan="auto"``, and on fewer cores the per-unit pools it
   may open cost more than they win and drown the fusion saving; a
   wave's branches run one after the other on the calling thread on
   both sides).  Simulated time must improve unconditionally — the fused
   chain pays one scan and one job startup where the per-fragment model
   pays one per fragment, which no amount of host noise can hide.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

import repro.planner.planner as planner_module
from conftest import compiled
from repro import ExecOptions, Session
from repro.engine.multiprocess import default_process_count
from repro.workloads import get_benchmark
from repro.workloads.runner import run_benchmark_graph

#: Multi-stage programs: fusable chains and independent branches.
MULTI_STAGE = [
    "biglambda_select_sum",
    "tpch_q1",
    "tpch_q15",
    "tpch_q17",
    "iterative_pagerank",
    "iterative_logistic_regression",
]

IDENTITY_SIZE = 2_000
SPEEDUP_SIZE = 60_000

STRICT = bool(os.environ.get("BENCH_STRICT"))
MIN_FUSION_SPEEDUP = 1.3 if STRICT else 0.8


@pytest.mark.parametrize("name", MULTI_STAGE, ids=lambda n: n)
class TestGraphIdentityAtScale:
    def test_fused_and_unfused_match_reference(self, name):
        fused = run_benchmark_graph(
            get_benchmark(name),
            size=IDENTITY_SIZE,
            plan="sequential",
            compilation=compiled(name),
        )
        assert fused.outputs_match, f"{name}: fused outputs diverged"
        unfused = run_benchmark_graph(
            get_benchmark(name),
            size=IDENTITY_SIZE,
            plan="sequential",
            fuse=False,
            compilation=compiled(name),
        )
        assert unfused.outputs_match, f"{name}: unfused outputs diverged"

    def test_fusion_never_worsens_simulated_time(self, name):
        fused = run_benchmark_graph(
            get_benchmark(name),
            size=IDENTITY_SIZE,
            plan="sequential",
            compilation=compiled(name),
        )
        unfused = run_benchmark_graph(
            get_benchmark(name),
            size=IDENTITY_SIZE,
            plan="sequential",
            fuse=False,
            compilation=compiled(name),
        )
        assert fused.simulated_seconds <= unfused.simulated_seconds * 1.001, (
            f"{name}: fused simulated {fused.simulated_seconds:.3f}s worse "
            f"than unfused {unfused.simulated_seconds:.3f}s"
        )


def test_fused_chain_runs_fewer_calls_than_unfused(monkeypatch):
    """``tpch_q15`` fuses ``query15#0 -> query15#1``: one unit, one scan.
    Each side's third ``plan="auto"`` run is counted, after two warm-up
    runs (kernels compiled, observations stored), as the bench does."""
    monkeypatch.setattr(planner_module, "default_process_count", lambda: 2)
    compilation = compiled("tpch_q15")
    inputs = get_benchmark("tpch_q15").make_inputs(IDENTITY_SIZE, 7)

    def warmed_calls(fuse: bool) -> tuple[int, int]:
        options = ExecOptions(plan="auto", fuse=fuse)
        with Session(max_workers=0) as session:
            for _ in range(2):
                session.run(compilation, dict(inputs), options)
            profile = cProfile.Profile()
            profile.enable()
            job = session.run(compilation, dict(inputs), options)
            profile.disable()
        assert job.ok, job.error
        return pstats.Stats(profile).total_calls, len(job.plan_report.unit_reports)

    fused_calls, fused_units = warmed_calls(fuse=True)
    unfused_calls, unfused_units = warmed_calls(fuse=False)
    assert (fused_units, unfused_units) == (1, 2)
    assert fused_calls < unfused_calls, (fused_calls, unfused_calls)


@pytest.mark.skipif(
    default_process_count() < 4,
    reason="fusion wall speedup needs ≥4 cores (the per-unit pools of "
    "plan='auto' cannot demonstrate gain on fewer)",
)
class TestFusionSpeedup:
    def test_fused_beats_unfused_1_3x(self, table_printer):
        rows = []
        fused_total = 0.0
        unfused_total = 0.0
        for name in MULTI_STAGE:
            compilation = compiled(name)
            benchmark = get_benchmark(name)
            fused = run_benchmark_graph(
                benchmark, size=SPEEDUP_SIZE, plan="auto", compilation=compilation
            )
            unfused = run_benchmark_graph(
                benchmark,
                size=SPEEDUP_SIZE,
                plan="auto",
                fuse=False,
                compilation=compilation,
            )
            assert fused.outputs_match and unfused.outputs_match
            fused_total += fused.wall_seconds
            unfused_total += unfused.wall_seconds
            rows.append(
                [
                    name,
                    f"{unfused.wall_seconds:.3f}",
                    f"{fused.wall_seconds:.3f}",
                    f"{unfused.wall_seconds / max(fused.wall_seconds, 1e-9):.2f}×",
                ]
            )
        speedup = unfused_total / max(fused_total, 1e-9)
        rows.append(
            ["TOTAL", f"{unfused_total:.3f}", f"{fused_total:.3f}", f"{speedup:.2f}×"]
        )
        table_printer(
            f"Fused vs unfused DAG execution ({SPEEDUP_SIZE:,} records, "
            f"{default_process_count()} cores)",
            ["benchmark", "unfused_wall_s", "fused_wall_s", "speedup"],
            rows,
        )
        assert speedup >= MIN_FUSION_SPEEDUP, (
            f"fused execution only {speedup:.2f}× vs unfused "
            f"(bound {MIN_FUSION_SPEEDUP}×, strict={STRICT})"
        )

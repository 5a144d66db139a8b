"""Collect the repository's performance trajectory into one JSON file.

Run by CI's ``bench`` job (and locally with ``PYTHONPATH=src python
benchmarks/collect_bench.py --output BENCH_local.json``), this measures:

* **compile** — cold and warm (summary-cache) suite compile wall-clock
  per workload suite, plus cache statistics;
* **suites** — per-suite end-to-end ``run_benchmark`` wall-clock and
  simulated speedup aggregates;
* **planner** — sequential vs ``plan="auto"`` wall-clock on a large
  input, with the chosen backend and the planner's own estimates, so
  the cost model can be tracked against measured reality over time;
* **dag** — fused whole-program (one Session job) vs unfused
  per-fragment execution on the multi-stage benchmarks: wall and
  simulated seconds per benchmark, the fusion decisions taken, and the
  aggregate fusion speedups;
* **spill** — out-of-core vs in-memory execution: wall clock for both
  paths, the engine's peak-resident proxy against the memory budget,
  spill-run counts, and whether results stayed byte-identical (they
  must — the identity flag is recorded so a regression is visible in
  the trajectory, and gated hard in benchmarks/test_spill_bench.py);
* **kernel** — compiled batch kernels vs the tree-walking evaluator
  oracle: per-record map throughput of the production steps and the
  oracle steps on the map-heavy benchmarks (identity checked, speedup
  gated in benchmarks/test_kernel_bench.py);
* **adaptive** — feedback-driven re-planning: cold plan vs warm
  re-plan wall clock and decisions on the join suite at the BENCH_pr5
  misprice budget (the stored observation flips the forced reduce-side
  join back to broadcast), estimate provenance, and the mid-job
  broadcast-overflow switch with result identity;
* **serve** — the compile-and-serve daemon: cold vs warm registration
  (same process, and a restarted daemon over the disk cache tier),
  p50/p95 submit→result round-trip latency over the socket, concurrent
  mixed-budget throughput, and result identity vs the same job run
  in-process;
* **diagnostics** — the static soundness gate: an analysis-only sweep
  of every registry fragment (diagnostic counts per code; pre-CEGIS
  rejections must stay 0 on the suites), crafted provably-unsound
  fragments compiled with the gate on vs off (the wall-clock delta is
  the CEGIS time the gate saves, and the ungated run shows the
  mistranslation hazard the gate exists to prevent), and the
  counterexample cache's warm-search delta.

The output is uploaded as a ``BENCH_pr<N>.json`` artifact per CI run,
recording the perf trajectory PR over PR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from repro import ExecOptions, Session, SummaryCache, translate
from repro.engine.multiprocess import default_process_count
from repro.workloads import datagen, get_benchmark, suite_benchmarks, suites
from repro.workloads.runner import (
    compile_benchmark,
    run_benchmark,
    run_benchmark_graph,
)

#: Input sizes kept modest so the bench job stays under a few minutes
#: (matrix-multiply-style kernels are cubic in size — the interpreter's
#: step budget enforces this).  Mirrors test_table1_feasibility.py.
RUN_SIZE_BY_SUITE = {
    "ariths": 6000,
    "biglambda": 3000,
    "fiji": 3000,
    "iterative": 2500,
    "joins": 800,
    "phoenix": 4000,
    "stats": 5000,
    "tpch": 2500,
}
PLANNER_SIZE = 200_000
PLANNER_BENCHMARK = "stats_correlation_sums"

#: Multi-stage programs measured fused vs unfused (mirrors
#: benchmarks/test_dag_bench.py, which gates the speedup on ≥4 cores).
DAG_BENCHMARKS = [
    "biglambda_select_sum",
    "tpch_q1",
    "tpch_q15",
    "tpch_q17",
    "iterative_pagerank",
    "iterative_logistic_regression",
]
DAG_SIZE = 40_000

#: Spill-vs-in-memory measurement: wordcount over a large_scale stream
#: ≥10× the budget (mirrors benchmarks/test_spill_bench.py, which gates
#: identity always and bounds the slowdown on ≥4 cores).
SPILL_BENCHMARK = "phoenix_wordcount"
SPILL_RECORDS = 60_000
SPILL_BUDGET = 65_536

#: Translated-join measurement (mirrors tests/test_joins.py): each
#: benchmark runs broadcast and reduce-side (budget pinned below the
#: small side) and the ordering decision is captured for the star joins.
JOIN_BENCHMARKS = (
    "joins_partsupp_cost",
    "joins_q3_revenue",
    "joins_three_way_cost",
)
JOIN_SIZE = 20_000
#: Interpreter-verification size: the reference interpreter walks the
#: whole nest (O(n·√n)+), so correctness is checked at a smaller size
#: and the two physical strategies cross-check each other at JOIN_SIZE.
JOIN_VERIFY_SIZE = 2_000
JOIN_REDUCE_BUDGET = 512

#: Compiled-kernel measurement (mirrors benchmarks/test_kernel_bench.py,
#: which gates ≥3× per-record speedup under BENCH_STRICT).
KERNEL_BENCHMARKS = (
    "ariths_sum",
    "fiji_threshold",
    "stats_variance_sums",
    "tpch_q6",
)
KERNEL_SIZE = 50_000


def run_job(session, compilation, inputs, options=None, fragment_index=None):
    """One inline Session job's ``JobResult``; a failed job raises."""
    job = session.run(compilation, inputs, options, fragment_index)
    if not job.ok:
        raise RuntimeError(job.error)
    return job


def measure_compile() -> dict:
    """Cold vs warm compilation per suite through one shared cache."""
    cache = SummaryCache()
    out: dict[str, dict] = {}

    def compile_all(benchmarks):
        started = time.perf_counter()
        results = [translate(b.source, b.function, cache=cache) for b in benchmarks]
        return results, time.perf_counter() - started

    for suite in suites():
        benchmarks = suite_benchmarks(suite)
        cold, cold_s = compile_all(benchmarks)
        warm, warm_s = compile_all(benchmarks)
        out[suite] = {
            "benchmarks": len(benchmarks),
            "fragments": sum(r.identified for r in cold),
            "translated": sum(r.translated for r in cold),
            "cold_seconds": round(cold_s, 3),
            "warm_seconds": round(warm_s, 3),
            "warm_cache_hits": sum(r.cache_hits for r in warm),
        }
    out["_cache_stats"] = cache.stats.as_dict()
    return out


def measure_suites() -> dict:
    """End-to-end run wall-clock and simulated speedups per suite."""
    out: dict[str, dict] = {}
    for suite in suites():
        started = time.perf_counter()
        speedups = []
        matched = 0
        total = 0
        errors = []
        size = RUN_SIZE_BY_SUITE.get(suite, 3000)
        for benchmark in suite_benchmarks(suite):
            total += 1
            try:
                run = run_benchmark(benchmark, size=size)
            except Exception as exc:
                errors.append(f"{benchmark.name}: {exc}")
                continue
            if run.translated:
                speedups.append(run.speedup)
                matched += int(run.outputs_match)
        out[suite] = {
            "benchmarks": total,
            "translated_runs": len(speedups),
            "outputs_matched": matched,
            "wall_seconds": round(time.perf_counter() - started, 3),
            "mean_simulated_speedup": (
                round(sum(speedups) / len(speedups), 2) if speedups else None
            ),
            "errors": errors,
        }
    return out


def measure_planner() -> dict:
    """Sequential vs auto-planned execution, measured for real."""
    benchmark = get_benchmark(PLANNER_BENCHMARK)
    compilation = compile_benchmark(benchmark)
    fragment = next((f for f in compilation.fragments if f.translated), None)
    if fragment is None:
        return {"error": f"{PLANNER_BENCHMARK} did not translate"}
    inputs = benchmark.make_inputs(PLANNER_SIZE, 7)

    seq = fragment.program.run(dict(inputs), ExecOptions(plan="sequential")).plan_report
    auto = fragment.program.run(dict(inputs), ExecOptions(plan="auto")).plan_report
    speedup = seq.wall_seconds / auto.wall_seconds if auto.wall_seconds else None
    return {
        "benchmark": PLANNER_BENCHMARK,
        "records": PLANNER_SIZE,
        "sequential_wall_seconds": round(seq.wall_seconds, 4),
        "auto_wall_seconds": round(auto.wall_seconds, 4),
        "auto_report": auto.summary(),
        "measured_speedup": round(speedup, 2) if speedup else None,
    }


def measure_dag() -> dict:
    """Fused vs unfused whole-program job graph, measured for real.

    ``plan="auto"`` lets the per-unit planner engage the pool where it
    can win; on single-CPU hosts both modes run sequentially and the
    comparison isolates pure fusion savings (one scan + startup per
    chain instead of per fragment).
    """
    per_benchmark: dict[str, dict] = {}
    fused_wall = unfused_wall = 0.0
    fused_sim = unfused_sim = 0.0
    for name in DAG_BENCHMARKS:
        benchmark = get_benchmark(name)
        try:
            compilation = compile_benchmark(benchmark)
            fused = run_benchmark_graph(
                benchmark, size=DAG_SIZE, plan="auto", compilation=compilation
            )
            unfused = run_benchmark_graph(
                benchmark,
                size=DAG_SIZE,
                plan="auto",
                fuse=False,
                compilation=compilation,
            )
        except Exception as exc:
            per_benchmark[name] = {"error": str(exc)}
            continue
        fused_wall += fused.wall_seconds
        unfused_wall += unfused.wall_seconds
        fused_sim += fused.simulated_seconds
        unfused_sim += unfused.simulated_seconds
        per_benchmark[name] = {
            "outputs_match": fused.outputs_match and unfused.outputs_match,
            "fused_wall_seconds": round(fused.wall_seconds, 4),
            "unfused_wall_seconds": round(unfused.wall_seconds, 4),
            "fused_simulated_seconds": round(fused.simulated_seconds, 4),
            "unfused_simulated_seconds": round(unfused.simulated_seconds, 4),
            "waves": [list(w) for w in fused.report.plan.waves],
            "fused_away": fused.report.fused_away,
            "decisions": [
                {"code": d.code, "message": d.message}
                for d in fused.report.optimizer_diagnostics
            ],
            "records_cache_hits": fused.report.records_cache_hits,
        }
    return {
        "benchmarks": per_benchmark,
        "records": DAG_SIZE,
        "fused_wall_seconds": round(fused_wall, 4),
        "unfused_wall_seconds": round(unfused_wall, 4),
        "wall_speedup": (
            round(unfused_wall / fused_wall, 2) if fused_wall else None
        ),
        "fused_simulated_seconds": round(fused_sim, 4),
        "unfused_simulated_seconds": round(unfused_sim, 4),
        "simulated_speedup": (
            round(unfused_sim / fused_sim, 2) if fused_sim else None
        ),
    }


def measure_spill() -> dict:
    """Out-of-core vs in-memory execution, measured for real.

    The peak-resident number is the engine's own sizeof-model proxy
    (bytes held in shuffle buffers + merge groups), the same quantity
    test_spill_bench bounds at 2× the budget.
    """
    benchmark = get_benchmark(SPILL_BENCHMARK)
    compilation = compile_benchmark(benchmark)
    source = datagen.large_scale(SPILL_RECORDS, seed=11, kind="words")
    dataset_bytes = source.estimated_bytes()
    records = source.materialize()
    data_arg = benchmark.data_args[0]

    with Session(max_workers=0, observe=False) as session:
        started = time.perf_counter()
        base = run_job(
            session, compilation, {data_arg: records}, ExecOptions(plan="sequential")
        ).outputs
        base_wall = time.perf_counter() - started

        started = time.perf_counter()
        spill_run = run_job(
            session,
            compilation,
            {data_arg: source},
            ExecOptions(plan="auto", memory_budget=SPILL_BUDGET),
        )
        spill_wall = time.perf_counter() - started

    spilled, report = spill_run.outputs, spill_run.plan_report
    unit = next(iter(report.unit_reports.values()), None)
    stats = (unit.spill_stats if unit is not None else None) or {}
    return {
        "benchmark": SPILL_BENCHMARK,
        "records": SPILL_RECORDS,
        "dataset_bytes": dataset_bytes,
        "memory_budget": SPILL_BUDGET,
        "results_identical": spilled == base,
        "in_memory_wall_seconds": round(base_wall, 4),
        "spill_wall_seconds": round(spill_wall, 4),
        "spill_slowdown": (
            round(spill_wall / base_wall, 2) if base_wall else None
        ),
        "peak_resident_bytes": stats.get("peak_resident_bytes"),
        "peak_over_budget": (
            round(stats["peak_resident_bytes"] / SPILL_BUDGET, 3)
            if stats.get("peak_resident_bytes") is not None
            else None
        ),
        "spill_runs": stats.get("spill_runs"),
        "spilled_bytes": stats.get("spilled_bytes"),
        "plan_decisions": [
            {"code": d.code, "message": d.message}
            for d in (unit.diagnostics if unit is not None else [])
            if d.code.startswith("REP4")
        ],
    }


def measure_join() -> dict:
    """Translated joins: reduce-side vs broadcast, ordering decisions.

    For each join benchmark: wall time of a broadcast run and a
    reduce-side-forced run (budget pinned below the small side) at
    JOIN_SIZE, results verified against the reference interpreter at
    JOIN_VERIFY_SIZE (the interpreter's nested scans are super-linear)
    with the two strategies cross-checked at full size, and — for the
    multi-ordering star joins — the §7.4 cardinality-based ordering the
    planner recorded.
    """
    from repro.lang.interpreter import Interpreter
    from repro.lang.values import values_equal
    from repro.planner.joins import summary_relations

    out: dict[str, dict] = {}
    for name in JOIN_BENCHMARKS:
        benchmark = get_benchmark(name)
        try:
            compilation = compile_benchmark(benchmark)
            fragment = compilation.fragments[0]
            if not fragment.translated:
                out[name] = {"error": fragment.failure_reason}
                continue
            inputs = benchmark.make_inputs(JOIN_SIZE, 7)
            out_var = list(fragment.analysis.output_vars)[0]
            small = benchmark.make_inputs(JOIN_VERIFY_SIZE, 7)
            interp = Interpreter(benchmark.parse())
            expected_small = interp.call_function(
                benchmark.function, benchmark.args_for(small)
            )
            verified = values_equal(
                fragment.program.run(
                    dict(small), ExecOptions(plan="sequential")
                ).outputs[out_var],
                expected_small,
            )

            ran = fragment.program.run(dict(inputs), ExecOptions(plan="auto"))
            broadcast, b_report = ran.outputs, ran.plan_report
            ran = fragment.program.run(
                dict(inputs), ExecOptions(plan="auto", memory_budget=JOIN_REDUCE_BUDGET)
            )
            reduce_side, r_report = ran.outputs, ran.plan_report
            out[name] = {
                "records": JOIN_SIZE,
                "orderings_verified": len(
                    {
                        tuple(summary_relations(p.summary))
                        for p in fragment.program.programs
                    }
                ),
                "matches_interpreter_at_verify_size": verified,
                "strategies_agree": values_equal(
                    broadcast[out_var], reduce_side[out_var]
                ),
                "broadcast": {
                    "strategies": list(b_report.plan.join_strategies),
                    "wall_seconds": round(b_report.wall_seconds, 4),
                },
                "reduce_side": {
                    "strategies": list(r_report.plan.join_strategies),
                    "spill": r_report.plan.spill,
                    "wall_seconds": round(r_report.wall_seconds, 4),
                },
                "ordering": (b_report.join or {}).get("ordering"),
                "join_levels": (b_report.join or {}).get("levels"),
            }
        except Exception as exc:
            out[name] = {"error": str(exc)}
    return out


def measure_adaptive() -> dict:
    """Feedback-driven re-planning: cold plan vs warm re-plan (PR 9).

    Each join benchmark runs twice with ``feedback=True`` at the
    BENCH_pr5 misprice budget (pinned below the small side, where the
    static rule chooses the slow reduce-side strategy): the cold run
    plans from static estimates and records its observation, the warm
    run re-plans from it — flipping the mispriced join to broadcast.
    Wall clocks, the decisions, and the estimate provenance are
    recorded; results must agree across the re-plan.  A final scenario
    measures the *mid-job* broadcast-overflow switch (the build size is
    patched so the guard trips deterministically).
    """
    from repro.lang.values import values_equal

    out: dict[str, dict] = {}
    for name in JOIN_BENCHMARKS:
        benchmark = get_benchmark(name)
        try:
            compilation = compile_benchmark(benchmark)
            fragment = compilation.fragments[0]
            if not fragment.translated:
                out[name] = {"error": fragment.failure_reason}
                continue
            inputs = benchmark.make_inputs(JOIN_SIZE, 7)
            out_var = list(fragment.analysis.output_vars)[0]
            feedback = ExecOptions(
                plan="auto", memory_budget=JOIN_REDUCE_BUDGET, feedback=True
            )
            with Session(max_workers=0) as session:
                ran = run_job(session, compilation, dict(inputs), feedback, 0)
                cold, cold_report = ran.outputs, ran.plan_report
                ran = run_job(session, compilation, dict(inputs), feedback, 0)
                warm, warm_report = ran.outputs, ran.plan_report
            cold_wall = cold_report.wall_seconds
            warm_wall = warm_report.wall_seconds
            out[name] = {
                "records": JOIN_SIZE,
                "memory_budget": JOIN_REDUCE_BUDGET,
                "results_agree": values_equal(cold[out_var], warm[out_var]),
                "replanned": (
                    list(cold_report.plan.join_strategies)
                    != list(warm_report.plan.join_strategies)
                ),
                "cold": {
                    "strategies": list(cold_report.plan.join_strategies),
                    "wall_seconds": round(cold_wall, 4),
                },
                "warm": {
                    "strategies": list(warm_report.plan.join_strategies),
                    "wall_seconds": round(warm_wall, 4),
                    "broadcast_limit": warm_report.plan.broadcast_limit,
                },
                "warm_speedup": (
                    round(cold_wall / warm_wall, 2) if warm_wall else None
                ),
                "join_strategy_estimate": warm_report.estimates.get(
                    "join_strategy"
                ),
            }
        except Exception as exc:
            out[name] = {"error": str(exc)}

    # The mid-job switch, measured: a broadcast build that overflows its
    # limit during the driver-side index build rebuilds reduce-side.
    import repro.codegen.joins as joins_mod

    benchmark = get_benchmark(JOIN_BENCHMARKS[0])
    try:
        compilation = compile_benchmark(benchmark)
        fragment = compilation.fragments[0]
        program = fragment.program
        inputs = benchmark.make_inputs(JOIN_SIZE, 7)
        out_var = list(fragment.analysis.output_vars)[0]
        ran = program.run(
            dict(inputs), ExecOptions(plan="auto", memory_budget=JOIN_REDUCE_BUDGET)
        )
        reference, reference_report = ran.outputs, ran.plan_report
        original_sizeof_pair = joins_mod.sizeof_pair
        joins_mod.sizeof_pair = lambda key, value: 1 << 40
        try:
            ran = program.run(dict(inputs), ExecOptions(plan="auto"))
        finally:
            joins_mod.sizeof_pair = original_sizeof_pair
        switched, switched_report = ran.outputs, ran.plan_report
        out["overflow_switch"] = {
            "benchmark": JOIN_BENCHMARKS[0],
            "records": JOIN_SIZE,
            "planned_strategies": list(
                switched_report.plan.join_strategies
            ),
            "switch": next(
                (
                    d.message
                    for d in switched_report.diagnostics
                    if d.code == "REP403" and "overflowed" in d.message
                ),
                None,
            ),
            "ran_strategy": (switched_report.join or {})
            .get("levels", [{}])[0]
            .get("strategy"),
            # Strict equality vs the *spilled* reduce-side reference: the
            # switched run folds in memory, so float sums may drift in
            # the last ulp (tests/test_observe.py pins byte-identity on
            # an integer join, where fold order cannot matter).
            "results_identical": switched[out_var] == reference[out_var],
            "results_agree": values_equal(
                switched[out_var], reference[out_var]
            ),
            "switched_wall_seconds": round(
                switched_report.wall_seconds, 4
            ),
            "reduce_side_wall_seconds": round(
                reference_report.wall_seconds, 4
            ),
        }
    except Exception as exc:
        out["overflow_switch"] = {"error": str(exc)}
    return out


def measure_kernel() -> dict:
    """Compiled batch kernels vs the evaluator, measured for real.

    Per-record map throughput is the honest unit: both kernels run the
    same verified λm over the same records in the same process, so the
    ratio is valid even on a single-CPU host.
    """
    from repro.codegen.base import prepare_globals, view_records

    def best_of(repeats, fn):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    per_benchmark: dict[str, dict] = {}
    for name in KERNEL_BENCHMARKS:
        benchmark = get_benchmark(name)
        try:
            compilation = compile_benchmark(benchmark)
            fragment = next(f for f in compilation.fragments if f.translated)
            program = fragment.program.programs[0]
            inputs = benchmark.make_inputs(KERNEL_SIZE, 7)
            globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
            records = view_records(fragment.analysis.view, inputs)
            eval_fn = program.oracle_steps(globals_env)[0].fn
            comp_fn = program.local_steps(globals_env)[0].fn
            identical = comp_fn.map_chunk(records) == [
                pair for record in records for pair in eval_fn(record)
            ]
            eval_s = best_of(3, lambda: [eval_fn(r) for r in records])
            comp_s = best_of(3, lambda: comp_fn.map_chunk(records))
            per_benchmark[name] = {
                "records": KERNEL_SIZE,
                "outputs_identical": identical,
                "vectorized": getattr(comp_fn, "vectorized", False),
                "eval_us_per_record": round(eval_s * 1e6 / len(records), 3),
                "compiled_us_per_record": round(comp_s * 1e6 / len(records), 3),
                "speedup": round(eval_s / comp_s, 2) if comp_s else None,
            }
        except Exception as exc:
            per_benchmark[name] = {"error": str(exc)}

    return {"map_throughput": per_benchmark}


#: Serve-layer measurement: round-trip latency over the local socket
#: with a resident (warm) program, plus a concurrent mixed-budget batch.
SERVE_BENCHMARK = "ariths_sum"
SERVE_SIZE = 5_000
SERVE_LATENCY_JOBS = 20
SERVE_CONCURRENT_JOBS = 16
SERVE_BUDGET = 16_384


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def measure_serve() -> dict:
    """The daemon measured for real: registration warmth and latency."""
    import tempfile

    from repro.serve.client import connect
    from repro.serve.daemon import serve

    benchmark = get_benchmark(SERVE_BENCHMARK)
    inputs = benchmark.make_inputs(SERVE_SIZE, 7)
    with Session(max_workers=0) as session:
        expected = run_job(session, compile_benchmark(benchmark), dict(inputs)).outputs

    out: dict = {
        "benchmark": SERVE_BENCHMARK,
        "records": SERVE_SIZE,
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as cache_dir:
        daemon = serve(cache_dir=cache_dir, max_workers=4)
        try:
            client = connect(daemon.address)

            started = time.perf_counter()
            cold = client.compile(benchmark.source, benchmark.function)
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            warm = client.compile(benchmark.source, benchmark.function)
            warm_s = time.perf_counter() - started
            out["register"] = {
                "cold_seconds": round(cold_s, 4),
                "cold_candidates_checked": cold.candidates_checked,
                "warm_seconds": round(warm_s, 4),
                "warm_candidates_checked": warm.candidates_checked,
                "warm_skipped_synthesis": warm.warm
                and warm.candidates_checked == 0,
            }

            # Sequential submit→result round trips on the warm program:
            # the latency a resident client actually observes.
            latencies = []
            identical = True
            for _ in range(SERVE_LATENCY_JOBS):
                started = time.perf_counter()
                result = client.submit(cold, inputs).result(timeout=300)
                latencies.append(time.perf_counter() - started)
                identical = identical and result.outputs == expected
            out["latency"] = {
                "jobs": SERVE_LATENCY_JOBS,
                "p50_seconds": round(_percentile(latencies, 0.50), 4),
                "p95_seconds": round(_percentile(latencies, 0.95), 4),
                "results_identical": identical,
            }

            # Concurrent mixed-budget batch: total wall → throughput.
            budget = ExecOptions(memory_budget=SERVE_BUDGET)
            started = time.perf_counter()
            jobs = [
                client.submit(cold, inputs, budget if i % 2 else None)
                for i in range(SERVE_CONCURRENT_JOBS)
            ]
            results = [job.result(timeout=300) for job in jobs]
            batch_s = time.perf_counter() - started
            out["concurrent"] = {
                "jobs": SERVE_CONCURRENT_JOBS,
                "budgeted_jobs": SERVE_CONCURRENT_JOBS // 2,
                "memory_budget": SERVE_BUDGET,
                "wall_seconds": round(batch_s, 4),
                "jobs_per_second": round(SERVE_CONCURRENT_JOBS / batch_s, 2),
                "results_identical": all(
                    r.ok and r.outputs == expected for r in results
                ),
                "admission_modes": sorted({r.admission["mode"] for r in results}),
            }
        finally:
            daemon.shutdown()

        # A restarted daemon over the same disk tier registers warm.
        daemon = serve(cache_dir=cache_dir, max_workers=2)
        try:
            client = connect(daemon.address)
            started = time.perf_counter()
            restarted = client.compile(benchmark.source, benchmark.function)
            out["register"]["restart_seconds"] = round(time.perf_counter() - started, 4)
            out["register"]["restart_candidates_checked"] = (
                restarted.candidates_checked
            )
        finally:
            daemon.shutdown()
    return out


#: Crafted provably-unsound fragments for the gate measurement: the
#: static soundness pass rejects both pre-CEGIS; with the gate disabled
#: the search runs to completion and *accepts a deterministic summary*
#: for them — the mistranslation hazard the gate exists to prevent.
UNSOUND_SOURCES = {
    "rng_in_loop": (
        "double noisySum(double[] data, int n) {\n"
        "  double total = 0;\n"
        "  for (int i = 0; i < n; i++) total += data[i] * Math.random();\n"
        "  return total;\n"
        "}\n"
    ),
    "unmodelled_call": (
        "int bits(int[] data, int n) {\n"
        "  int total = 0;\n"
        "  for (int i = 0; i < n; i++) total += Integer.bitCount(data[i]);\n"
        "  return total;\n"
        "}\n"
    ),
}

#: Fragment used for the counterexample-cache delta: a float fold whose
#: search refutes wrong candidates before converging, so a timed-out
#: first run leaves counterexamples (and no summary) in the cache.
CEX_SOURCE = (
    "double fsum(double[] data, int n) {\n"
    "  double total = 0;\n"
    "  for (int i = 0; i < n; i++) total += data[i];\n"
    "  return total;\n"
    "}\n"
)


def measure_diagnostics() -> dict:
    """The static soundness gate and diagnostics layer, measured for real."""
    import tempfile

    from repro.compiler import CasperCompiler, translate as translate_one
    from repro.diagnostics import analyze_soundness
    from repro.errors import AnalysisError
    from repro.lang.analysis.fragments import analyze_fragment, identify_fragments
    from repro.lang.parser import parse_program
    from repro.synthesis.search import SearchConfig
    from repro.workloads import all_benchmarks

    # Analysis-only sweep of the whole registry: what the gate observes
    # on real workloads (tests/test_diagnostics.py gates rejections at 0).
    per_code: dict[str, int] = {}
    fragments_seen = 0
    rejected = 0
    started = time.perf_counter()
    for benchmark in all_benchmarks():
        program = parse_program(benchmark.source)
        func = program.function(benchmark.function)
        for fragment in identify_fragments(func):
            try:
                analysis = analyze_fragment(fragment, program)
            except AnalysisError:
                continue
            fragments_seen += 1
            diags = analyze_soundness(analysis)
            for diag in diags:
                per_code[diag.code] = per_code.get(diag.code, 0) + 1
            if any(d.severity == "error" for d in diags):
                rejected += 1
    sweep = {
        "fragments_analyzed": fragments_seen,
        "rejected_pre_cegis": rejected,
        "diagnostics_per_code": dict(sorted(per_code.items())),
        "sweep_seconds": round(time.perf_counter() - started, 3),
    }

    # Gate on vs off over the crafted unsound fragments.
    gate: dict[str, dict] = {}
    for name, source in UNSOUND_SOURCES.items():
        try:
            started = time.perf_counter()
            gated = CasperCompiler().translate_source(source)
            gated_s = time.perf_counter() - started
            started = time.perf_counter()
            ungated = CasperCompiler(soundness=False).translate_source(source)
            ungated_s = time.perf_counter() - started
            gate[name] = {
                "rejected_pre_cegis": not gated.fragments[0].translated,
                "codes": sorted(
                    {
                        d.code
                        for d in gated.diagnostics
                        if d.severity == "error"
                    }
                ),
                "gate_seconds": round(gated_s, 4),
                "no_gate_seconds": round(ungated_s, 4),
                "cegis_seconds_saved": round(ungated_s - gated_s, 4),
                "mistranslated_without_gate": ungated.fragments[0].translated,
            }
        except Exception as exc:
            gate[name] = {"error": str(exc)}

    # Counterexample cache: a timed-out first search persists its
    # bounded refutations; the repeat search re-checks them first.
    cex: dict = {}
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cex-") as tmp:
            cache = SummaryCache(cache_dir=tmp)
            translate_one(
                CEX_SOURCE,
                search_config=SearchConfig(timeout_seconds=0.02),
                cache=cache,
            )
            started = time.perf_counter()
            warm = translate_one(CEX_SOURCE, cache=cache)
            warm_s = time.perf_counter() - started
            started = time.perf_counter()
            cold = translate_one(CEX_SOURCE)
            cold_s = time.perf_counter() - started
            cex = {
                "translated": warm.fragments[0].translated,
                "cached_counterexamples_used": (
                    warm.fragments[0].search.cached_counterexamples_used
                ),
                "counterexamples_recorded": len(
                    cold.fragments[0].search.counterexample_states
                ),
                "cold_search_seconds": round(cold_s, 4),
                "seeded_search_seconds": round(warm_s, 4),
            }
    except Exception as exc:
        cex = {"error": str(exc)}

    return {"sweep": sweep, "gate": gate, "cex_cache": cex}


def git_sha() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return (
            subprocess.check_output(["git", "rev-parse", "HEAD"])
            .decode()
            .strip()
        )
    except Exception:
        return "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_local.json", help="output path")
    parser.add_argument(
        "--skip-compile",
        action="store_true",
        help="skip the (slow) cold-compile measurements",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    payload = {
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": default_process_count(),
            "bench_strict": bool(os.environ.get("BENCH_STRICT")),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "compile": None if args.skip_compile else measure_compile(),
        "suites": measure_suites(),
        "planner": measure_planner(),
        "dag": measure_dag(),
        "spill": measure_spill(),
        "join": measure_join(),
        "adaptive": measure_adaptive(),
        "kernel": measure_kernel(),
        "serve": measure_serve(),
        "diagnostics": measure_diagnostics(),
    }
    payload["meta"]["total_seconds"] = round(time.perf_counter() - started, 2)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {args.output} in {payload['meta']['total_seconds']}s")
    print(json.dumps(payload["planner"], indent=2))
    print(
        "dag fusion speedup: "
        f"wall {payload['dag']['wall_speedup']}×, "
        f"simulated {payload['dag']['simulated_speedup']}×"
    )
    for name, row in payload["join"].items():
        if "error" in row:
            print(f"join {name}: ERROR {row['error']}")
            continue
        print(
            f"join {name}: broadcast {row['broadcast']['wall_seconds']}s / "
            f"reduce-side {row['reduce_side']['wall_seconds']}s, "
            f"orderings={row['orderings_verified']}, "
            f"order={row['ordering'] and row['ordering']['order']}"
        )
    for name, row in payload["adaptive"].items():
        if "error" in row:
            print(f"adaptive {name}: ERROR {row['error']}")
            continue
        if name == "overflow_switch":
            print(
                f"adaptive overflow_switch ({row['benchmark']}): "
                f"{row['planned_strategies']} → {row['ran_strategy']} "
                f"mid-job (REP403 switch: {row['switch'] is not None}), "
                f"identical={row['results_identical']}, "
                f"agree={row['results_agree']}"
            )
            continue
        print(
            f"adaptive {name}: cold {row['cold']['strategies']} "
            f"{row['cold']['wall_seconds']}s → warm "
            f"{row['warm']['strategies']} {row['warm']['wall_seconds']}s "
            f"(replanned={row['replanned']}, "
            f"speedup {row['warm_speedup']}×, "
            f"agree={row['results_agree']})"
        )
    spill = payload["spill"]
    print(
        "spill: identical="
        f"{spill['results_identical']}, slowdown "
        f"{spill['spill_slowdown']}×, peak/budget "
        f"{spill['peak_over_budget']}"
    )
    for name, row in payload["kernel"]["map_throughput"].items():
        if "error" in row:
            print(f"kernel {name}: ERROR {row['error']}")
            continue
        print(
            f"kernel {name}: {row['speedup']}× "
            f"({row['eval_us_per_record']} → {row['compiled_us_per_record']} "
            f"µs/rec, identical={row['outputs_identical']}, "
            f"numpy={row['vectorized']})"
        )
    serve_row = payload["serve"]
    print(
        "serve: register cold "
        f"{serve_row['register']['cold_seconds']}s → warm "
        f"{serve_row['register']['warm_seconds']}s (restart "
        f"{serve_row['register']['restart_seconds']}s, candidates "
        f"{serve_row['register']['restart_candidates_checked']}), "
        f"latency p50 {serve_row['latency']['p50_seconds']}s / p95 "
        f"{serve_row['latency']['p95_seconds']}s, "
        f"{serve_row['concurrent']['jobs_per_second']} jobs/s concurrent, "
        f"identical={serve_row['concurrent']['results_identical']}"
    )
    diag_row = payload["diagnostics"]
    print(
        "diagnostics sweep: "
        f"{diag_row['sweep']['fragments_analyzed']} fragments, "
        f"{diag_row['sweep']['rejected_pre_cegis']} rejected pre-CEGIS, "
        f"codes={diag_row['sweep']['diagnostics_per_code']}"
    )
    for name, row in diag_row["gate"].items():
        if "error" in row:
            print(f"diagnostics gate {name}: ERROR {row['error']}")
            continue
        print(
            f"diagnostics gate {name}: rejected={row['rejected_pre_cegis']} "
            f"({'/'.join(row['codes'])}), saved "
            f"{row['cegis_seconds_saved']}s CEGIS, mistranslated without "
            f"gate={row['mistranslated_without_gate']}"
        )
    cex_row = diag_row["cex_cache"]
    if "error" in cex_row:
        print(f"diagnostics cex cache: ERROR {cex_row['error']}")
    else:
        print(
            "diagnostics cex cache: "
            f"{cex_row['cached_counterexamples_used']} cached refutations "
            f"re-checked first, cold {cex_row['cold_search_seconds']}s → "
            f"seeded {cex_row['seeded_search_seconds']}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

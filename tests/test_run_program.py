"""Whole-program property tests: the job graph across every suite.

The acceptance property of the job-graph layer: for every benchmark of
all seven suites,

    fused DAG execution == unfused DAG execution
                        == per-fragment sequential execution
                        == the reference interpreter,

including loop-carried datasets (PageRank ranks fed across iterations)
and the planner's determinism (same job, same CPU count, same plan).
"""

from __future__ import annotations

import pytest

from repro import ExecOptions, Session
from repro.graph import interpret_reference, optimize_graph, run_graph
from repro.lang.interpreter import Interpreter
from repro.lang.values import values_equal
from repro.planner import planner as planner_module
from repro.workloads import all_benchmarks, get_benchmark
from repro.workloads.runner import run_benchmark_graph
from suite_cache import compiled

RUN_SIZE = 250


def _match(lhs: dict, rhs: dict) -> bool:
    common = set(lhs) & set(rhs)
    return all(values_equal(lhs[k], rhs[k]) for k in common)


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()], ids=lambda n: n)
class TestGraphIdentity:
    """run_graph == per-fragment sequential == interpreter, per benchmark."""

    def test_fused_dag_matches_all_references(self, name):
        benchmark = get_benchmark(name)
        compilation = compiled(name)
        inputs = benchmark.make_inputs(RUN_SIZE, 7)

        run = run_graph(
            compilation.job_graph, dict(inputs), ExecOptions(strict=False)
        )
        fused, report = run.outputs, run.plan_report
        unfused = run_graph(
            compilation.job_graph, dict(inputs), ExecOptions(strict=False, fuse=False)
        ).outputs
        interpreted = interpret_reference(compilation.job_graph, dict(inputs))

        # Per-fragment sequential chaining: each translated fragment
        # runs as its own job (run_benchmark's model); untranslated
        # fragments with an analysis are interpreted so their outputs
        # still chain forward (what strict=False does graph-side).
        from repro.graph.executor import interpret_fragment

        sequential: dict = {}
        env = dict(inputs)
        for fragment in compilation.fragments:
            if fragment.translated:
                outputs = fragment.program.run(dict(env)).outputs
            elif fragment.analysis is not None:
                outputs = interpret_fragment(fragment.analysis, env)
            else:
                continue
            env.update(outputs)
            sequential.update(outputs)

        assert _match(fused, interpreted), f"{name}: fused != interpreter"
        assert _match(unfused, interpreted), f"{name}: unfused != interpreter"
        assert _match(fused, unfused), f"{name}: fused != unfused"
        assert _match(sequential, interpreted), f"{name}: per-fragment != interpreter"
        assert _match(fused, sequential), f"{name}: fused != per-fragment"

        # Every observable (final) variable a translated-or-interpreted
        # node produces must actually be delivered.
        produced_final = {
            var
            for node in compilation.job_graph.nodes.values()
            if node.analysis is not None
            for var in node.output_vars
            if var in compilation.job_graph.final_vars
        }
        missing = [v for v in produced_final if v not in fused]
        assert not missing, f"{name}: final outputs missing {missing}"
        assert report is not None


class TestMultiStagePrograms:
    def test_select_sum_exercises_map_map_fusion(self):
        compilation = compiled("biglambda_select_sum")
        benchmark = get_benchmark("biglambda_select_sum")
        report = run_graph(
            compilation.job_graph, benchmark.make_inputs(RUN_SIZE, 7)
        ).plan_report
        said = [(d.code, d.message) for d in report.optimizer_diagnostics]
        assert any(c == "REP407" and "map→map fused" in m for c, m in said)
        assert any(c == "REP408" and "combiner hoisted" in m for c, m in said)
        assert report.fused_away == ["kept"]

    def test_q1_exercises_concurrent_branches(self):
        compilation = compiled("tpch_q1")
        benchmark = get_benchmark("tpch_q1")
        report = run_graph(
            compilation.job_graph, benchmark.make_inputs(RUN_SIZE, 7)
        ).plan_report
        assert report.plan.waves == [(0, 1)]
        # Both aggregates scan lineitem: one materialization, one reuse.
        assert report.records_cache_hits >= 1
        # The modelled cluster runs the wave's branches side by side.
        assert 0 < report.simulated_seconds < report.simulated_seconds_serial

    def test_pagerank_chain_stage_fuses(self):
        compilation = compiled("iterative_pagerank")
        benchmark = get_benchmark("iterative_pagerank")
        run = run_graph(compilation.job_graph, benchmark.make_inputs(RUN_SIZE, 7))
        schedule = optimize_graph(compilation.job_graph)
        assert any(unit.fused for unit in schedule.units)
        assert any(
            d.code == "REP407" and "stage-fused" in d.message
            for d in run.plan_report.optimizer_diagnostics
        )

    def test_loop_carried_pagerank_iterations(self):
        benchmark = get_benchmark("iterative_pagerank")
        compilation = compiled("iterative_pagerank")
        inputs = benchmark.make_inputs(RUN_SIZE, 7)
        interp = Interpreter(benchmark.parse())
        graph_rank = list(inputs["rank"])
        interp_rank = list(inputs["rank"])
        for _iteration in range(3):
            outputs = run_graph(
                compilation.job_graph,
                {
                    "edges": inputs["edges"],
                    "rank": graph_rank,
                    "nodes": inputs["nodes"],
                },
            ).outputs
            graph_rank = outputs["next"]
            interp_rank = interp.call_function(
                "pagerankIter", [inputs["edges"], interp_rank, inputs["nodes"]]
            )
            assert values_equal(graph_rank, interp_rank)

    def test_run_benchmark_graph_round_trip(self):
        run = run_benchmark_graph(
            get_benchmark("tpch_q15"),
            size=RUN_SIZE,
            plan="sequential",
            compilation=compiled("tpch_q15"),
        )
        assert run.outputs_match
        assert run.simulated_seconds > 0
        assert run.report.unit_reports


class TestFragmentIndexJobs:
    def test_multi_fragment_program_runs_whole_or_by_index(self):
        compilation = compiled("tpch_q1")
        inputs = get_benchmark("tpch_q1").make_inputs(20, 7)
        expected = interpret_reference(compilation.job_graph, dict(inputs))
        with Session(max_workers=0) as session:
            whole = session.run(compilation, dict(inputs))
            second = session.run(compilation, dict(inputs), fragment_index=1)
            missing = session.run(compilation, dict(inputs), fragment_index=2)
        assert whole.ok and _match(whole.outputs, expected)
        assert second.ok and set(second.outputs) < set(whole.outputs)
        assert _match(second.outputs, expected)
        assert missing.error == (
            "AnalysisError: fragment_index 2 out of range: "
            "'query1' has 2 fragment(s)"
        )

    def test_untranslated_fragment_error_keeps_reason(self):
        compilation = compiled("biglambda_cross_pairs")
        with Session(max_workers=0) as session:
            job = session.run(compilation, {}, fragment_index=0)
        assert not job.ok
        assert "was not translated" in job.error


def _chained_fragments(name: str):
    """Each translated fragment of ``name`` with the inputs it sees when
    the program's fragments run in source order (the runner's chaining)."""
    inputs = get_benchmark(name).make_inputs(PLAN_SIZE, 7)
    for fragment in compiled(name).fragments:
        if not fragment.translated:
            continue
        snapshot = dict(inputs)
        try:
            outputs = fragment.program.run(dict(snapshot)).outputs
        except Exception:
            continue  # chained inputs missing — the runner skips these too
        yield fragment, snapshot
        inputs.update(outputs)


PLAN_SIZE = 300


class TestDeterministicPlanning:
    """Same (program, inputs, options, CPU count) → the same plan: the
    backend choice is a pure function, so planning twice must agree to
    the last decision diagnostic and the last float."""

    @pytest.mark.parametrize("name", [b.name for b in all_benchmarks()], ids=str)
    def test_planning_twice_agrees_on_every_cpu_count(self, name, monkeypatch):
        from repro.codegen.base import prepare_globals, view_records

        for fragment, inputs in _chained_fragments(name):
            adaptive = fragment.program
            records = view_records(fragment.analysis.view, inputs)
            head = adaptive.sample_head(records)
            globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
            for cpus in (1, 2, 8):
                monkeypatch.setattr(
                    planner_module, "default_process_count", lambda cpus=cpus: cpus
                )
                for program in adaptive.programs:
                    first, second = (
                        adaptive.plan_execution(
                            ExecOptions(plan="auto"),
                            program,
                            records,
                            head,
                            globals_env,
                            inputs=inputs,
                        )
                        for _ in range(2)
                    )
                    assert first[0] == second[0]  # ExecutionPlan
                    assert first[1].diagnostics == second[1].diagnostics
                    assert first[1].estimated_seconds == second[1].estimated_seconds
                    assert first[1].estimates == second[1].estimates
                    assert (first[0].backend == "sequential") or cpus > 1

    def test_one_cpu_makes_no_pricing_call(self, monkeypatch):
        compilation = compiled("biglambda_sentiment")
        fragment = next(f for f in compilation.fragments if f.translated)
        inputs = get_benchmark("biglambda_sentiment").make_inputs(200, 7)

        def _fail(*args, **kwargs):
            raise AssertionError("nothing is priced on 1 CPU")

        monkeypatch.setattr(planner_module, "default_process_count", lambda: 1)
        monkeypatch.setattr(planner_module, "price_backends", _fail)
        monkeypatch.setattr(planner_module, "unpicklable_reason", _fail)
        report = fragment.program.run(
            dict(inputs), ExecOptions(plan="auto")
        ).plan_report
        assert report.plan.backend == "sequential"
        assert any(
            d.code == "REP401" and "1 CPU(s) available" in d.message
            for d in report.diagnostics
        )
        assert report.estimated_seconds == {}
        assert report.estimates["backend"] == {"processes": 1, "chosen": "sequential"}

    def test_multi_cpu_prices_both_backends(self, monkeypatch):
        compilation = compiled("biglambda_sentiment")
        fragment = next(f for f in compilation.fragments if f.translated)
        inputs = get_benchmark("biglambda_sentiment").make_inputs(200, 7)
        monkeypatch.setattr(planner_module, "default_process_count", lambda: 4)
        report = fragment.program.run(
            dict(inputs), ExecOptions(plan="auto")
        ).plan_report
        assert set(report.estimated_seconds) == {"sequential", "multiprocess"}
        assert report.estimates["backend"]["processes"] == 4
        assert report.plan.backend == "sequential"  # 200 records: start-up decides

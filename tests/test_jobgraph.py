"""Unit tests for the whole-program job-graph layer.

Covers the inter-fragment dataflow analysis, the JobGraph IR (cycle
detection, failed-producer validation), the fusion optimizer (map→map
fusion, combiner hoisting, dead-stage elimination), the engine's bridge
step, and the executor's failure paths.
"""

from __future__ import annotations

import faulthandler
import threading

import pytest
from suite_cache import compiled

from repro import ExecOptions, translate
from repro.errors import GraphError
from repro.graph import (
    JobEdge,
    JobGraph,
    JobNode,
    interpret_reference,
    optimize_graph,
    run_graph,
)
from repro.lang.analysis import analyze_dataflow, identify_fragments
from repro.lang.analysis.fragments import analyze_fragment
from repro.lang.parser import parse_program
from repro.lang.values import values_equal
from repro.workloads import get_benchmark

SELECT_SUM_SOURCE = """
class Row { int id; int val; }
double selectSum(List<Row> rows, int threshold) {
  List<int> kept = new ArrayList<int>();
  for (Row r : rows) {
    if (r.val > threshold) kept.add(r.val);
  }
  double total = 0;
  for (int v : kept) {
    total += v;
  }
  return total;
}
"""

TWO_BRANCH_SOURCE = """
int twoBranches(int[] data, int n) {
  int a = 0;
  for (int i = 0; i < n; i++) a += data[i];
  int b = 0;
  for (int j = 0; j < n; j++) b += data[j] * data[j];
  return a + b;
}
"""


def _rows(n):
    from repro.lang.values import Instance

    return [Instance("Row", {"id": i, "val": (i * 37) % 100}) for i in range(n)]


def _analyses(source, function=None):
    program = parse_program(source)
    func = program.function(function) if function else program.functions[0]
    out = []
    for fragment in identify_fragments(func):
        try:
            out.append(analyze_fragment(fragment, program))
        except Exception:
            out.append(None)
    return out, func


class TestDataflow:
    def test_chain_edge_with_dataset_kind(self):
        analyses, func = _analyses(SELECT_SUM_SOURCE)
        flow = analyze_dataflow(analyses, func)
        assert len(flow.edges) == 1
        edge = flow.edges[0]
        assert (edge.producer, edge.consumer, edge.var) == (0, 1, "kept")
        assert edge.kind == "dataset"
        assert flow.final_vars == {"total"}
        assert "rows" in flow.source_vars

    def test_independent_branches_have_no_edges(self):
        analyses, func = _analyses(TWO_BRANCH_SOURCE)
        flow = analyze_dataflow(analyses, func)
        assert flow.edges == []
        assert flow.final_vars == {"a", "b"}

    def test_broadcast_edge_kind(self):
        source = """
        class Edge { int src; int dst; }
        double[] pr(List<Edge> edges, double[] rank, int nodes) {
          int[] outdeg = new int[nodes];
          for (Edge e : edges) {
            outdeg[e.src] = outdeg[e.src] + 1;
          }
          double[] contrib = new double[nodes];
          for (Edge e : edges) {
            contrib[e.dst] = contrib[e.dst] + rank[e.src] / outdeg[e.src];
          }
          return contrib;
        }
        """
        analyses, func = _analyses(source)
        flow = analyze_dataflow(analyses, func)
        kinds = {(e.producer, e.consumer, e.var): e.kind for e in flow.edges}
        assert kinds[(0, 1, "outdeg")] == "broadcast"

    def test_failed_analysis_has_no_edges(self):
        analyses, func = _analyses(SELECT_SUM_SOURCE)
        flow = analyze_dataflow([analyses[0], None], func)
        assert flow.edges == []


class TestJobGraphIR:
    def test_compiled_graph_attached_by_sixth_pass(self):
        result = translate(SELECT_SUM_SOURCE)
        assert result.job_graph is not None
        assert "graph" in result.pass_seconds
        assert set(result.job_graph.nodes) == {"selectSum#0", "selectSum#1"}
        assert result.job_graph.final_vars == frozenset({"total"})

    def test_topological_order_and_describe(self):
        result = translate(SELECT_SUM_SOURCE)
        graph = result.job_graph
        assert graph.topological_order() == ["selectSum#0", "selectSum#1"]
        text = graph.describe()
        assert "selectSum#0 --kept/dataset--> selectSum#1" in text

    def test_cycle_detection(self):
        graph = JobGraph(function="loop")
        graph.nodes["a"] = JobNode(id="a", index=0)
        graph.nodes["b"] = JobNode(id="b", index=1)
        graph.edges = [
            JobEdge("a", "b", "x", "dataset"),
            JobEdge("b", "a", "y", "dataset"),
        ]
        with pytest.raises(GraphError, match="cycle"):
            graph.topological_order()

    def test_check_producers_names_failed_producer(self):
        result = translate(SELECT_SUM_SOURCE)
        graph = result.job_graph
        producer = graph.nodes["selectSum#0"]
        producer.program = None
        producer.failure_reason = "synthetic failure"
        with pytest.raises(GraphError, match="selectSum#0.*synthetic failure"):
            graph.check_producers()


class TestFusion:
    def test_map_map_fusion_and_combiner_hoist(self):
        result = translate(SELECT_SUM_SOURCE)
        schedule = optimize_graph(result.job_graph)
        assert len(schedule.units) == 1
        unit = schedule.units[0]
        assert unit.node_ids == ("selectSum#0", "selectSum#1")
        assert unit.bridges == ("map",)
        assert schedule.fused_away == frozenset({"kept"})
        said = [(d.code, d.message) for d in schedule.diagnostics]
        assert any(c == "REP407" and "map→map fused" in m for c, m in said)
        assert any(c == "REP408" and "combiner hoisted" in m for c, m in said)

    def test_fuse_disabled_yields_singletons(self):
        result = translate(SELECT_SUM_SOURCE)
        schedule = optimize_graph(result.job_graph, fuse=False)
        assert [u.node_ids for u in schedule.units] == [
            ("selectSum#0",),
            ("selectSum#1",),
        ]

    def test_observable_intermediate_uses_barrier_bridge(self):
        # When the intermediate is itself required, map→map fusion would
        # lose it; the optimizer must degrade to a capturing barrier.
        result = translate(SELECT_SUM_SOURCE)
        schedule = optimize_graph(result.job_graph, required_vars={"kept", "total"})
        unit = schedule.units[0]
        assert unit.bridges == ("barrier",)

    def test_prelude_reading_intermediate_blocks_fusion(self):
        # The consumer's prelude runs at chain-assembly time, before the
        # intermediate exists; fusing here would crash the default path.
        source = """
        class Row { int id; int val; }
        double selectSum(List<Row> rows, int threshold) {
          List<int> kept = new ArrayList<int>();
          for (Row r : rows) {
            if (r.val > threshold) kept.add(r.val);
          }
          double n = kept.size();
          double total = 0;
          for (int v : kept) {
            total += v;
          }
          return total;
        }
        """
        result = translate(source)
        assert all(f.translated for f in result.fragments)
        schedule = optimize_graph(result.job_graph)
        assert all(not unit.fused for unit in schedule.units)
        inputs = {"rows": _rows(60), "threshold": 50}
        outputs = run_graph(result.job_graph, dict(inputs)).outputs
        expected = interpret_reference(result.job_graph, dict(inputs))
        assert values_equal(outputs["total"], expected["total"])

    def test_dead_stage_elimination(self):
        result = translate(TWO_BRANCH_SOURCE)
        schedule = optimize_graph(result.job_graph, required_vars={"a"})
        assert len(schedule.units) == 1
        (eliminated,) = [d.message for d in schedule.diagnostics if d.code == "REP410"]
        assert eliminated.startswith("twoBranches#1: eliminated (dead stage")


class TestExecutorFailurePaths:
    def test_consumer_of_failed_producer_raises(self):
        result = translate(SELECT_SUM_SOURCE)
        graph = result.job_graph
        producer = graph.nodes["selectSum#0"]
        producer.program = None
        producer.failure_reason = "no valid summary"
        with pytest.raises(GraphError) as excinfo:
            run_graph(graph, {"rows": _rows(10), "threshold": 50})
        message = str(excinfo.value)
        assert "selectSum#0" in message
        assert "no valid summary" in message
        assert "strict=False" in message

    def test_cyclic_graph_raises_through_run(self):
        result = translate(SELECT_SUM_SOURCE)
        graph = result.job_graph
        graph.edges.append(JobEdge("selectSum#1", "selectSum#0", "total", "broadcast"))
        with pytest.raises(GraphError, match="cycle"):
            run_graph(graph, {"rows": _rows(10), "threshold": 50})

    def test_non_strict_interprets_failed_producer(self):
        result = translate(SELECT_SUM_SOURCE)
        graph = result.job_graph
        producer = graph.nodes["selectSum#0"]
        producer.program = None
        producer.failure_reason = "no valid summary"
        inputs = {"rows": _rows(40), "threshold": 50}
        run = run_graph(graph, dict(inputs), ExecOptions(strict=False))
        expected = interpret_reference(graph, dict(inputs))
        assert run.plan_report.interpreted_nodes == ["selectSum#0"]
        assert values_equal(run.outputs["total"], expected["total"])

    def test_a_statement_outside_every_fragment_is_never_dropped(self):
        """``xs.add(7)`` runs before the only fragment reads ``xs``: a
        strict run refuses and names it, a non-strict one interprets the
        function whole and says so — never ``t = 6`` with status ok."""
        from repro import Session
        from repro.lang.interpreter import Interpreter

        source = (
            "int f(List<int> xs) { xs.add(7); int t = 0;"
            " for (int x : xs) t += x; return t; }"
        )
        result = translate(source)
        assert [s.line for s in result.job_graph.unrun] == [1]
        xs = [1, 2, 3]
        session = Session(max_workers=0)
        for plan in (None, "sequential", "auto"):
            strict = session.run(result, {"xs": xs}, ExecOptions(plan=plan))
            assert strict.status == "error"
            assert "GraphError" in strict.error and "xs.add(…)" in strict.error
            lenient = session.run(
                result, {"xs": xs}, ExecOptions(plan=plan, strict=False)
            )
            assert lenient.status == "ok" and lenient.outputs == {"t": 13}
            assert [d.code for d in lenient.diagnostics].count("REP414") == 1
        assert interpret_reference(result.job_graph, {"xs": xs}) == {"t": 13}
        assert xs == [1, 2, 3]  # no run mutated the caller's input
        assert Interpreter(parse_program(source)).call_function("f", [xs]) == 13

    def test_the_tail_after_the_last_fragment_is_not_unrun(self):
        # tpch_q1 post-processes its result after the last fragment: that
        # tail reads the job's outputs, it is not part of the job.
        assert compiled("tpch_q1").job_graph.unrun == ()

    def test_requested_output_must_exist(self):
        result = translate(SELECT_SUM_SOURCE)
        with pytest.raises(GraphError, match="nonexistent"):
            run_graph(
                result.job_graph,
                {"rows": _rows(10), "threshold": 50},
                ExecOptions(outputs=["nonexistent"]),
            )


class TestExecutor:
    def test_fused_matches_reference(self):
        result = translate(SELECT_SUM_SOURCE)
        inputs = {"rows": _rows(300), "threshold": 50}
        run = run_graph(result.job_graph, dict(inputs))
        fused = run.outputs
        expected = interpret_reference(result.job_graph, dict(inputs))
        assert values_equal(fused["total"], expected["total"])
        assert "kept" not in fused  # fused away, never materialized
        assert sorted(run.plan_report.fused_away) == ["kept"]

    def test_unfused_materializes_intermediate(self):
        result = translate(SELECT_SUM_SOURCE)
        inputs = {"rows": _rows(300), "threshold": 50}
        unfused = run_graph(
            result.job_graph, dict(inputs), ExecOptions(fuse=False)
        ).outputs
        expected = interpret_reference(result.job_graph, dict(inputs))
        assert values_equal(unfused["kept"], expected["kept"])
        assert values_equal(unfused["total"], expected["total"])

    def test_fusion_saves_simulated_time(self):
        result = translate(SELECT_SUM_SOURCE)
        inputs = {"rows": _rows(500), "threshold": 50}
        graph = result.job_graph
        fused = run_graph(graph, dict(inputs), ExecOptions(plan="sequential"))
        unfused = run_graph(
            graph, dict(inputs), ExecOptions(plan="sequential", fuse=False)
        )
        assert (
            fused.plan_report.simulated_seconds < unfused.plan_report.simulated_seconds
        )

    def test_branches_share_one_wave_and_records_cache(self):
        result = translate(TWO_BRANCH_SOURCE)
        inputs = {"data": list(range(64)), "n": 64}
        run = run_graph(result.job_graph, dict(inputs))
        outputs, report = run.outputs, run.plan_report
        assert report.plan.waves == [(0, 1)]
        assert report.records_cache_hits >= 1
        expected = interpret_reference(result.job_graph, dict(inputs))
        assert values_equal(outputs["a"], expected["a"])
        assert values_equal(outputs["b"], expected["b"])

    def test_forced_cluster_plan_degrades_fused_chains(self):
        result = translate(SELECT_SUM_SOURCE)
        report = run_graph(
            result.job_graph,
            {"rows": _rows(100), "threshold": 50},
            ExecOptions(plan="spark"),
        ).plan_report
        unit_report = report.unit_reports["selectSum#0"]
        assert unit_report.plan.backend == "sequential"
        assert any(
            d.code == "REP401" and "degraded" in d.message
            for d in unit_report.diagnostics
        )

    def test_pooled_branches_run_on_the_calling_thread(self):
        # Branch threads over pooled units forked a ProcessPoolExecutor
        # from a multi-threaded driver: tpch_q1 under
        # ExecOptions(plan="multiprocess", max_workers=2) hung for good
        # within a handful of runs (one thread parked in pool.map, two
        # orphaned fork children).  A wave now runs on the caller.
        with pytest.raises(TypeError, match="max_workers"):
            ExecOptions(max_workers=2)
        with pytest.raises(ValueError, match="unknown ExecOptions field"):
            ExecOptions.from_dict({"max_workers": 2})
        graph = compiled("tpch_q1").job_graph
        # 6 000 records: past the engine's 2 048-record pool floor.
        inputs = get_benchmark("tpch_q1").make_inputs(6000, 7)
        expected = run_graph(
            graph, dict(inputs), ExecOptions(plan="sequential")
        ).outputs
        threads_before = threading.active_count()
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            for _ in range(4):
                run = run_graph(
                    graph, dict(inputs), ExecOptions(plan="multiprocess")
                )
                assert run.plan_report.plan.waves == [(0, 1)]
                assert run.outputs == expected
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert threading.active_count() == threads_before


class TestBridgeStep:
    def test_bridge_step_in_engine_pipeline(self):
        from repro.engine.multiprocess import (
            BridgeStep,
            MapStep,
            MultiprocessEngine,
            ReduceStep,
        )

        engine = MultiprocessEngine(processes=0)
        steps = [
            MapStep(lambda record: [(record % 3, record)]),
            ReduceStep(lambda a, b: a + b),
            BridgeStep(lambda pairs: [value for _key, value in pairs]),
            MapStep(lambda record: [("all", record)]),
            ReduceStep(lambda a, b: a + b),
        ]
        result = engine.run_pipeline(list(range(10)), steps)
        assert result.pairs == [("all", sum(range(10)))]
        names = [stage.name for stage in result.metrics.stages]
        assert any(name.startswith("bridge") for name in names)

"""Tests for the cost-driven execution planner and its wiring."""

from __future__ import annotations

import pytest

from repro import ExecOptions, Session, translate
from repro.planner import planner as planner_module
from repro.planner.plan import (
    BACKENDS,
    ExecutionPlan,
    PlanReport,
    StagePlan,
    forced_plan,
)

WORDCOUNT_SOURCE = """
Map<String, Integer> wc(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
"""

WORDS = [f"w{i % 40}" for i in range(9000)]


@pytest.fixture(scope="module")
def wc_result():
    return translate(WORDCOUNT_SOURCE)


class TestPlanDataModel:
    def test_combiner_for_defaults_true(self):
        plan = ExecutionPlan(backend="sequential")
        assert plan.combiner_for(1) is True

    def test_combiner_for_reads_stage_plans(self):
        plan = ExecutionPlan(
            backend="multiprocess",
            stages=(
                StagePlan(index=0, kind="map"),
                StagePlan(index=1, kind="reduce", combiner=False),
            ),
        )
        assert plan.combiner_for(1) is False

    def test_forced_plan_validates_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            forced_plan("mapreduce-in-the-sky")
        for backend in BACKENDS:
            assert forced_plan(backend).backend == backend

    def test_describe_and_summary(self):
        plan = forced_plan("multiprocess")
        assert "backend=multiprocess" in plan.describe()
        report = PlanReport(plan=plan, input_records=5)
        summary = report.summary()
        assert summary["backend"] == "multiprocess"
        assert summary["input_records"] == 5


class TestPlanPass:
    def test_pipeline_attaches_planner(self, wc_result):
        fragment = wc_result.fragments[0]
        assert fragment.program.planner is not None
        assert fragment.program.planner.unpicklable is None

    def test_plan_pass_timing_recorded(self, wc_result):
        assert "plan" in wc_result.pass_seconds

    def test_static_cost_bounds_ordered(self, wc_result):
        for low, high in fragment_bounds(wc_result):
            assert low <= high


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 10_000])
def test_one_sizeof_sample_byte_estimator(n):
    """The planner's input estimate, the join's small-side estimate and
    ``Dataset.estimated_bytes`` are one 64-record sizeof-sample
    estimator, equal to each of the three copies it replaced."""
    from repro.engine.sizes import dataset_bytes
    from repro.engine.source import ListSource

    records = [("w" * (i % 9), i, i * 0.5) for i in range(n)]

    def joins_copy(records, sample=64):
        if not records:
            return 0
        head = records[: max(1, sample)]
        return int(dataset_bytes(head) / len(head) * len(records))

    def planner_copy(records):
        sample = records[:64]
        return int(dataset_bytes(sample) / len(sample) * len(records)) if sample else 0

    def dataset_copy(records):
        if not records:
            return 0
        sample = records[:64]
        return int(dataset_bytes(sample) / len(sample) * len(records))

    got = planner_module.estimate_input_bytes(records)
    assert got == ListSource(records).estimated_bytes()
    assert got == joins_copy(records) == planner_copy(records) == dataset_copy(records)


def run_fragment(result, inputs, options=None):
    """The sole fragment's full outcome: outputs, report, metrics."""
    return result.fragments[0].program.run(inputs, options)


def fragment_bounds(result):
    """Each implementation's (lower, upper) per-record cost bound."""
    return [
        (program.cost.lower_bound(), program.cost.upper_bound())
        for program in result.fragments[0].program.programs
    ]


class TestAutoPlanning:
    def test_auto_matches_default_outputs(self, wc_result):
        default = run_fragment(wc_result, {"words": list(WORDS)}).outputs
        auto = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="auto")
        ).outputs
        assert auto == default

    def test_report_surfaced(self, wc_result):
        from repro.engine.multiprocess import default_process_count

        report = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="auto")
        ).report
        assert report is not None
        assert report.input_records == len(WORDS)
        if default_process_count() < 2:
            # Single-CPU hosts price nothing — the pool cannot win.
            assert report.estimated_seconds == {}
        else:
            assert set(report.estimated_seconds) == {
                "sequential",
                "multiprocess",
            }
        assert report.implementation is not None
        assert report.wall_seconds > 0
        assert report.plan.reasons

    def test_tiny_input_stays_sequential(self, wc_result):
        report = run_fragment(
            wc_result, {"words": list(WORDS[:64])}, ExecOptions(plan="auto")
        ).report
        assert report.plan.backend == "sequential"
        assert any(
            "predicted sequential" in r or "CPU" in r for r in report.plan.reasons
        )

    def test_cluster_ranking_reproduces_paper_ordering(self, wc_result):
        report = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="auto")
        ).report
        assert set(report.cluster_seconds) == {"spark", "hadoop", "flink"}
        assert report.cluster_seconds["spark"] < report.cluster_seconds["hadoop"]
        assert report.cluster_recommendation == "spark"

    def test_forced_worker_count_chooses_multiprocess(self, wc_result, monkeypatch):
        monkeypatch.setattr(planner_module, "default_process_count", lambda: 8)
        monkeypatch.setattr(planner_module, "POOL_STARTUP_S", 0.0)
        monkeypatch.setattr(planner_module, "SHIP_BYTE_S", 0.0)
        outcome = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="auto")
        )
        outputs, report = outcome.outputs, outcome.report
        assert report.plan.backend == "multiprocess"
        assert report.plan.processes == 8
        assert report.fallback_reason is None
        assert outputs == run_fragment(wc_result, {"words": list(WORDS)}).outputs

    def test_combiner_disabled_by_key_ratio_cutoff(self, wc_result, monkeypatch):
        monkeypatch.setattr(planner_module, "COMBINER_KEY_RATIO_CUTOFF", 0.0)
        result = wc_result
        report = run_fragment(
            result, {"words": list(WORDS)}, ExecOptions(plan="auto")
        ).report
        reduce_stages = [s for s in report.plan.stages if s.kind == "reduce"]
        assert reduce_stages and all(not s.combiner for s in reduce_stages)
        assert any("combiner off" in r for r in report.plan.reasons)

    def test_partitions_follow_engine_default_when_combining(self, wc_result):
        report = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="auto")
        ).report
        combining = any(s.kind == "reduce" and s.combiner for s in report.plan.stages)
        if combining:
            assert report.plan.partitions is None  # engine default


#: The keys of one priced stage row.
PRICED_ROW = {"stage", "kind", "ops", "reach"}


def choice_from_summary(summary: dict) -> str:
    """The backend a plan must have chosen, from its report's summary and
    nothing else — what ``estimates["backend"]`` exists for."""
    evidence = summary["estimates"]["backend"]
    processes = evidence["processes"]
    if processes < 2:
        return "sequential"
    constants = evidence["constants"]
    rate = constants["compiled_op_s"]
    work = sum(s["ops"] * s["reach"] * rate for s in evidence["stages"])
    n = evidence["input_records"]
    records, startup = (1, 0.0) if n is None else (n, constants["pool_startup_s"])
    sequential = work * records
    pool = (
        work / processes + evidence["bytes_per_record"] * constants["ship_byte_s"]
    ) * records + startup * processes
    assert evidence["predicted"] == pytest.approx(
        {"sequential": sequential, "multiprocess": pool}
    )
    if evidence["unpicklable"] or sequential < pool * constants["parallel_margin"]:
        return "sequential"
    return "multiprocess"


class TestPricedBackendChoice:
    """Pool or sequential is a price over the IR's op count: thresholds
    move with the module constants and with nothing else."""

    @pytest.fixture
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(planner_module, "default_process_count", lambda: 8)

    def plan_report(self, result, inputs):
        return run_fragment(result, inputs, ExecOptions(plan="auto")).report

    def test_default_constants_keep_a_cheap_scan_sequential(
        self, wc_result, eight_cpus
    ):
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        assert report.plan.backend == "sequential"
        assert set(report.estimated_seconds) == {"sequential", "multiprocess"}
        evidence = report.estimates["backend"]
        assert evidence["processes"] == 8 and evidence["input_records"] == len(WORDS)
        assert [(s["stage"], s["kind"]) for s in evidence["stages"]] == [
            (0, "map"),
            (1, "reduce"),
        ]
        assert all(set(s) == PRICED_ROW for s in evidence["stages"])

    def test_expensive_ops_choose_the_pool_with_eight_workers(
        self, wc_result, eight_cpus, monkeypatch
    ):
        monkeypatch.setattr(planner_module, "COMPILED_OP_S", 1e-3)
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        assert report.plan.backend == "multiprocess"
        assert report.plan.processes == 8
        assert any("on 8 processes" in r for r in report.plan.reasons)

    def test_shipping_cost_prices_the_pool_back_out(
        self, wc_result, eight_cpus, monkeypatch
    ):
        monkeypatch.setattr(planner_module, "COMPILED_OP_S", 1e-3)
        monkeypatch.setattr(planner_module, "SHIP_BYTE_S", 1e-3)
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        assert report.plan.backend == "sequential"

    def test_margin_decides_a_near_tie(self, wc_result, eight_cpus, monkeypatch):
        monkeypatch.setattr(planner_module, "POOL_STARTUP_S", 0.0)
        monkeypatch.setattr(planner_module, "SHIP_BYTE_S", 0.0)
        monkeypatch.setattr(planner_module, "PARALLEL_MARGIN", 8.5)
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        assert report.plan.backend == "sequential"  # an 8× win is under 8.5×
        monkeypatch.setattr(planner_module, "PARALLEL_MARGIN", 7.5)
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        assert report.plan.backend == "multiprocess"

    def test_tiny_input_falls_out_of_the_price(
        self, wc_result, eight_cpus, monkeypatch
    ):
        # No record-count rule: start-up alone outweighs 64 records of
        # even very expensive ops.
        monkeypatch.setattr(planner_module, "COMPILED_OP_S", 1e-4)
        report = self.plan_report(wc_result, {"words": list(WORDS[:64])})
        assert report.plan.backend == "sequential"
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        assert report.plan.backend == "multiprocess"

    def test_join_stages_are_priced_at_the_one_rate(self, eight_cpus):
        from suite_cache import compiled
        from repro.workloads import get_benchmark

        fragment = compiled("joins_partsupp_cost").fragments[0]
        inputs = get_benchmark("joins_partsupp_cost").make_inputs(400, 7)
        report = fragment.program.run(dict(inputs), ExecOptions(plan="auto")).report
        evidence = report.estimates["backend"]
        assert "join" in {s["kind"] for s in evidence["stages"]}
        assert all(set(s) == PRICED_ROW for s in evidence["stages"])
        work = sum(s["ops"] * s["reach"] for s in evidence["stages"])
        n = evidence["input_records"]
        assert evidence["predicted"]["sequential"] == pytest.approx(
            work * planner_module.COMPILED_OP_S * n
        )
        assert set(evidence["constants"]) == {
            "compiled_op_s",
            "ship_byte_s",
            "pool_startup_s",
            "parallel_margin",
        }
        assert choice_from_summary(report.summary()) == report.plan.backend

    def test_unknown_length_stream_is_priced_per_record(
        self, wc_result, eight_cpus, monkeypatch
    ):
        from repro.engine.source import GeneratorSource

        words = list(WORDS)
        stream = {"words": GeneratorSource(lambda: iter(words))}
        report = self.plan_report(wc_result, dict(stream))
        assert report.plan.backend == "sequential"
        assert report.estimated_seconds == {}
        evidence = report.estimates["backend"]
        assert evidence["input_records"] is None
        assert any("n → ∞" in r for r in report.plan.reasons)
        # The limit ignores start-up: only the per-record terms compare.
        monkeypatch.setattr(planner_module, "COMPILED_OP_S", 1e-4)
        monkeypatch.setattr(planner_module, "POOL_STARTUP_S", 1e6)
        pooled = self.plan_report(wc_result, dict(stream))
        assert pooled.plan.backend == "multiprocess"
        assert choice_from_summary(pooled.summary()) == "multiprocess"

    def test_unpicklable_records_price_the_pool_out(
        self, wc_result, eight_cpus, monkeypatch
    ):
        monkeypatch.setattr(planner_module, "COMPILED_OP_S", 1e-3)
        probed = []
        real = planner_module.unpicklable_reason
        monkeypatch.setattr(
            planner_module,
            "unpicklable_reason",
            lambda sample: probed.append(len(sample)) or real(sample),
        )
        keys = [lambda: None for _ in range(40)]  # hashable, never picklable
        words = [keys[i % 40] for i in range(9000)]
        outcome = wc_result.fragments[0].program.run(
            {"words": words}, ExecOptions(plan="auto")
        )
        report = outcome.report
        assert report.plan.backend == "sequential"
        assert any("pool priced out" in r for r in report.plan.reasons)
        assert "not picklable" in report.estimates["backend"]["unpicklable"]
        assert probed == [64]  # the byte estimate's sample, pickled once
        assert sum(outcome.outputs["counts"].values()) == len(words)
        assert choice_from_summary(report.summary()) == "sequential"
        # Asked only when the price would otherwise choose the pool.
        monkeypatch.setattr(planner_module, "COMPILED_OP_S", 1e-9)
        wc_result.fragments[0].program.run({"words": words}, ExecOptions(plan="auto"))
        assert probed == [64]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("op_s", [None, 1e-3])
    def test_choice_recomputes_from_the_summary_alone(
        self, wc_result, monkeypatch, cpus, op_s
    ):
        monkeypatch.setattr(planner_module, "default_process_count", lambda: cpus)
        if op_s is not None:
            monkeypatch.setattr(planner_module, "COMPILED_OP_S", op_s)
        report = self.plan_report(wc_result, {"words": list(WORDS)})
        summary = report.summary()
        assert choice_from_summary(summary) == summary["backend"]
        assert summary["backend"] == report.estimates["backend"]["chosen"]
        if cpus == 1:
            # One CPU short-circuits ahead of any pricing work.
            assert report.estimates["backend"] == {
                "processes": 1,
                "chosen": "sequential",
            }
            assert report.estimated_seconds == {}


class TestForcedPlans:
    @pytest.mark.parametrize("backend", ["sequential", "multiprocess", "spark"])
    def test_forced_backends_agree(self, wc_result, backend):
        default = run_fragment(wc_result, {"words": list(WORDS)}).outputs
        forced = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan=backend)
        )
        assert forced.outputs == default
        report = forced.report
        assert report.plan.backend == backend
        assert any("forced by caller" in r for r in report.plan.reasons)

    def test_unknown_plan_name_rejected(self, wc_result):
        with pytest.raises(ValueError, match="unknown backend"):
            run_fragment(wc_result, {"words": list(WORDS)}, ExecOptions(plan="dask"))

    def test_multiprocess_fallback_reported(self, wc_result):
        # On a single-CPU machine the pool cannot win; either way the
        # report must tell the truth about what actually executed.
        report = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="multiprocess")
        ).report
        if report.fallback_reason is not None:
            assert report.backend_used == "sequential"
        else:
            assert report.backend_used == "multiprocess"


FAULTY_KERNEL_SOURCE = """
int sumInverse(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += 1000 / data[i];
  return total;
}
"""


class TestWorkerExceptionPropagation:
    def test_translated_kernel_fault_propagates_from_pool(self):
        """Regression: an exception raised inside a translated kernel on a
        pool worker must reach the caller — the engine used to be able to
        mistake submission-time failures for unpicklable payloads and
        quietly re-run in-process."""
        from repro.errors import IRError
        from repro.planner.plan import ExecutionPlan

        result = translate(FAULTY_KERNEL_SOURCE)
        fragment = result.fragments[0]
        assert fragment.translated
        data = [1] * 4000
        data[1234] = 0  # the kernel divides by this record
        program = fragment.program.programs[0]
        plan = ExecutionPlan(backend="multiprocess", processes=2)
        with pytest.raises(IRError, match="division by zero"):
            program.run(
                {"data": data, "n": len(data)},
                backend="multiprocess",
                plan=plan,
            )

    def test_translated_kernel_fault_propagates(self):
        result = translate(FAULTY_KERNEL_SOURCE)
        from repro.errors import IRError

        data = [1] * 3000
        data[7] = 0
        options = ExecOptions(plan="multiprocess")
        with pytest.raises(IRError, match="division by zero"):
            run_fragment(result, {"data": data, "n": len(data)}, options)
        # A Session delivers the same fault as the job's error.
        with Session(max_workers=0) as session:
            job = session.run(result, {"data": data, "n": len(data)}, options)
        assert job.error.startswith("IRError: ") and "division by zero" in job.error


class TestMemoryAwarePlanning:
    def test_budget_forces_spill_when_input_exceeds_it(self, wc_result):
        outputs = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="sequential")
        ).outputs
        spilled = run_fragment(
            wc_result,
            {"words": list(WORDS)},
            ExecOptions(plan="sequential", memory_budget=2048),
        )
        assert spilled.outputs == outputs
        report = spilled.report
        assert report.plan.spill
        assert report.plan.memory_budget == 2048
        assert report.spill_stats is not None
        assert report.spill_stats["spill_runs"] > 0
        summary = report.summary()
        assert summary["spill"] is True
        assert summary["memory_budget"] == 2048

    def test_budget_alone_implies_auto_plan(self, wc_result):
        baseline = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="sequential")
        ).outputs
        budgeted = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(memory_budget=2048)
        )
        assert budgeted.outputs == baseline
        report = budgeted.report
        assert report.plan.spill
        assert any("spill" in r for r in report.plan.reasons)
        assert report.estimated_input_bytes is not None
        assert report.estimated_input_bytes > 2048

    def test_ample_budget_stays_in_memory(self, wc_result):
        report = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(memory_budget=1 << 30)
        ).report
        assert not report.plan.spill
        assert report.plan.memory_budget is None
        assert report.spill_stats is None
        assert any("fits memory budget" in r for r in report.plan.reasons)

    def test_simulated_backend_ignores_budget_honestly(self, wc_result):
        # A forced simulated backend materializes in-memory; the plan
        # must not claim a spill that never happened.
        baseline = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="sequential")
        ).outputs
        simulated = run_fragment(
            wc_result,
            {"words": list(WORDS)},
            ExecOptions(plan="spark", memory_budget=1024),
        )
        assert simulated.outputs == baseline
        report = simulated.report
        assert not report.plan.spill
        assert report.plan.memory_budget is None
        assert any("ignored" in r for r in report.plan.reasons)

    def test_streaming_dataset_input_plans_spill(self, wc_result):
        from repro.engine.source import GeneratorSource

        words = list(WORDS)
        baseline = run_fragment(
            wc_result, {"words": list(WORDS)}, ExecOptions(plan="sequential")
        ).outputs
        streamed = run_fragment(
            wc_result,
            {"words": GeneratorSource(lambda: iter(words))},
            ExecOptions(memory_budget=2048),
        )
        assert streamed.outputs == baseline
        report = streamed.report
        assert report.plan.spill
        assert any("unknown-length" in r for r in report.plan.reasons)


class TestRunnerIntegration:
    def test_run_benchmark_surfaces_plan_reports(self):
        from repro.workloads import get_benchmark
        from repro.workloads.runner import run_benchmark

        run = run_benchmark(get_benchmark("ariths_sum"), size=2000, plan="auto")
        assert run.plan == "auto"
        assert len(run.plan_reports) == run.fragments_translated
        assert run.outputs_match
        assert run.wall_seconds > 0

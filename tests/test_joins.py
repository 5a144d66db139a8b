"""Translated joins, end to end: analysis → synthesis → proof → codegen
→ planner — plus the PR-5 bugfix regressions (shuffle-key equality
classes in the spill partitioner, cycle-safe sizeof, and the degenerate
join-ordering guard).

The identity property (translated == interpreter == baseline on the
sequential, multiprocess, and spill paths) is asserted here explicitly
per physical strategy; the suite-wide graph-identity and spilled==
in-memory gates in ``tests/test_run_program.py`` and
``benchmarks/test_spill_bench.py`` cover the same benchmarks again as
part of their all-suite sweeps.
"""

from __future__ import annotations

import pytest

from repro import ExecOptions
from repro.baselines.joins import estimate_join_order, run_three_way_join
from repro.codegen.joins import (
    DEFAULT_BROADCAST_BYTES,
    JoinExpand,
    JoinFold,
    build_join_steps,
    resolve_join_strategies,
)
from repro.engine.multiprocess import MapStep, MultiprocessEngine, ReduceStep
from repro.engine.sizes import sizeof
from repro.engine.source import ListSource
from repro.engine.spill import _stable_bytes, partition_of
from repro.errors import CodegenError
from repro.lang.analysis.fragments import analyze_fragment, identify_fragments
from repro.lang.interpreter import Interpreter
from repro.lang.values import values_equal
from repro.planner.joins import (
    choose_join_ordering,
    join_chain_cost,
    summary_relations,
)
from repro.workloads import get_benchmark
from suite_cache import compiled

JOIN_BENCHMARKS = (
    "joins_partsupp_cost",
    "joins_q3_revenue",
    "joins_three_way_cost",
)


def translated_fragment(name: str):
    fragment = compiled(name).fragments[0]
    assert fragment.translated, fragment.failure_reason
    return fragment


def interpreter_result(name: str, inputs: dict):
    benchmark = get_benchmark(name)
    interp = Interpreter(benchmark.parse())
    return interp.call_function(benchmark.function, benchmark.args_for(inputs))


# ----------------------------------------------------------------------
# Analysis


class TestJoinAnalysis:
    def test_two_dataset_nest_is_recognized(self):
        benchmark = get_benchmark("joins_partsupp_cost")
        program = benchmark.parse()
        fragment = identify_fragments(program.function(benchmark.function))[0]
        analysis = analyze_fragment(fragment, program)
        assert analysis.view.kind == "join"
        assert analysis.view.sources == ["partsupp", "part"]
        assert analysis.features.multiple_datasets
        level = analysis.join.levels[0]
        assert (level.left_owner, level.left_key, level.right_key) == (
            "partsupp",
            "ps_partkey",
            "p_partkey",
        )

    def test_star_nest_has_two_orderings_linear_has_one(self):
        three = compiled("joins_three_way_cost").fragments[0].analysis
        assert len(three.join.orderings()) == 2
        two = compiled("joins_partsupp_cost").fragments[0].analysis
        assert two.join.orderings() == [(0,)]

    def test_residual_condition_is_not_a_key(self):
        analysis = compiled("joins_q3_revenue").fragments[0].analysis
        # Both levels key on equality; the segment filter lives in the
        # innermost body, not in any level's residual list.
        assert all(not level.residuals for level in analysis.join.levels)
        assert len(analysis.join.guarded_body) == 1


# ----------------------------------------------------------------------
# Synthesis + verification


class TestJoinSynthesis:
    @pytest.mark.parametrize("name", JOIN_BENCHMARKS)
    def test_compiles_through_the_full_pipeline(self, name):
        fragment = translated_fragment(name)
        search = fragment.search
        assert search.candidates_checked > 0, "CEGIS did not run"
        assert search.final_class.startswith("GJ")
        assert all(
            vs.proof.status in ("proved", "unknown") for vs in search.summaries
        )

    def test_three_way_join_proof_is_structural(self):
        search = translated_fragment("joins_three_way_cost").search
        assert all(vs.proof.status == "proved" for vs in search.summaries)
        assert "join-step" in search.summaries[0].proof.obligations

    def test_star_fragments_verify_both_orderings(self):
        for name in ("joins_three_way_cost", "joins_q3_revenue"):
            programs = translated_fragment(name).program.programs
            orders = {tuple(summary_relations(p.summary)) for p in programs}
            assert len(orders) == 2, f"{name}: expected two verified orderings"

    def test_join_summaries_round_trip_the_summary_cache(self):
        from repro.pipeline.cache import SummaryCache
        from repro.workloads.runner import compile_benchmark as compile_b

        benchmark = get_benchmark("joins_partsupp_cost")
        cache = SummaryCache()
        from repro.compiler import CasperCompiler

        compiler = CasperCompiler(cache=cache)
        cold = compiler.translate(benchmark.parse(), benchmark.function)
        warm = compiler.translate(benchmark.parse(), benchmark.function)
        assert cold.translated == warm.translated == 1
        assert warm.fragments[0].cache_hit
        assert warm.fragments[0].search.candidates_checked == 0
        inputs = benchmark.make_inputs(80, 3)
        expected = compile_b(benchmark)
        assert values_equal(
            warm.fragments[0].program.run(dict(inputs)).outputs["total"],
            expected.fragments[0].program.run(dict(inputs)).outputs["total"],
        )


# ----------------------------------------------------------------------
# Execution identity: translated == interpreter == baseline, per engine


class TestJoinIdentity:
    @pytest.mark.parametrize("name", JOIN_BENCHMARKS)
    @pytest.mark.parametrize("plan", [None, "sequential", "multiprocess"])
    def test_translated_matches_interpreter(self, name, plan):
        benchmark = get_benchmark(name)
        fragment = translated_fragment(name)
        inputs = benchmark.make_inputs(300, 7)
        expected = interpreter_result(name, inputs)
        outputs = fragment.program.run(dict(inputs), ExecOptions(plan=plan)).outputs
        out_var = list(fragment.analysis.output_vars)[0]
        assert values_equal(outputs[out_var], expected)

    @pytest.mark.parametrize("name", JOIN_BENCHMARKS)
    def test_spilled_matches_interpreter_and_in_memory(self, name):
        benchmark = get_benchmark(name)
        fragment = translated_fragment(name)
        inputs = benchmark.make_inputs(300, 7)
        out_var = list(fragment.analysis.output_vars)[0]
        in_memory = fragment.program.run(
            dict(inputs), ExecOptions(plan="sequential")
        ).outputs
        spilled = fragment.program.run(
            dict(inputs), ExecOptions(plan="sequential", memory_budget=2048)
        )
        assert spilled.report.plan.spill
        assert spilled.outputs == in_memory
        assert values_equal(
            spilled.outputs[out_var], interpreter_result(name, inputs)
        )

    def test_reduce_side_strategy_on_every_engine_path(self):
        """Pin reduce-side via a budget below the small side's bytes."""
        benchmark = get_benchmark("joins_partsupp_cost")
        fragment = translated_fragment("joins_partsupp_cost")
        inputs = benchmark.make_inputs(300, 7)
        expected = interpreter_result("joins_partsupp_cost", inputs)
        budget = 300  # below the ~500 B part side, above one record
        for plan in ("sequential", "multiprocess"):
            outcome = fragment.program.run(
                dict(inputs), ExecOptions(plan=plan, memory_budget=budget)
            )
            outputs, report = outcome.outputs, outcome.report
            assert report.plan.join_strategies == ("reduce_side",)
            assert report.plan.spill
            assert values_equal(outputs["total"], expected)

    def test_three_way_matches_baseline(self):
        benchmark = get_benchmark("joins_three_way_cost")
        fragment = translated_fragment("joins_three_way_cost")
        inputs = benchmark.make_inputs(300, 7)
        outputs = fragment.program.run(
            dict(inputs), ExecOptions(plan="sequential")
        ).outputs
        baseline = run_three_way_join(
            inputs["part"], inputs["supplier"], inputs["partsupp"]
        )
        assert round(outputs["total"], 2) == baseline.result["total_supplycost"]

    def test_streaming_dataset_inputs_are_rejected_clearly(self):
        from repro.engine.source import ListSource

        benchmark = get_benchmark("joins_partsupp_cost")
        fragment = translated_fragment("joins_partsupp_cost")
        inputs = benchmark.make_inputs(50, 7)
        inputs["part"] = ListSource(inputs["part"])
        with pytest.raises(CodegenError, match="streaming Dataset"):
            fragment.program.run(dict(inputs), ExecOptions(plan="sequential"))


# ----------------------------------------------------------------------
# Physical-strategy planning: broadcast iff the small side fits


class TestBroadcastDecision:
    def test_broadcast_iff_small_side_fits_budget(self, monkeypatch):
        """1-CPU-safe: the estimate is monkeypatched, no pool involved."""
        fragment = translated_fragment("joins_partsupp_cost")
        program = fragment.program.programs[0]
        benchmark = get_benchmark("joins_partsupp_cost")
        inputs = benchmark.make_inputs(120, 7)

        monkeypatch.setattr(
            ListSource, "estimated_bytes", lambda self, sample_records=64: 10_000
        )
        over = resolve_join_strategies(program, inputs, memory_budget=9_999)
        assert [d.strategy for d in over] == ["reduce_side"]
        under = resolve_join_strategies(program, inputs, memory_budget=10_000)
        assert [d.strategy for d in under] == ["broadcast"]

    def test_default_threshold_applies_without_budget(self, monkeypatch):
        fragment = translated_fragment("joins_partsupp_cost")
        program = fragment.program.programs[0]
        benchmark = get_benchmark("joins_partsupp_cost")
        inputs = benchmark.make_inputs(120, 7)
        monkeypatch.setattr(
            ListSource,
            "estimated_bytes",
            lambda self, sample_records=64: DEFAULT_BROADCAST_BYTES + 1,
        )
        decisions = resolve_join_strategies(program, inputs, memory_budget=None)
        assert [d.strategy for d in decisions] == ["reduce_side"]

    def test_second_level_always_broadcasts(self):
        fragment = translated_fragment("joins_three_way_cost")
        program = fragment.program.programs[0]
        benchmark = get_benchmark("joins_three_way_cost")
        inputs = benchmark.make_inputs(200, 7)
        decisions = resolve_join_strategies(program, inputs, memory_budget=1)
        assert len(decisions) == 2
        assert decisions[0].strategy == "reduce_side"  # budget 1 B
        assert decisions[1].strategy == "broadcast"
        assert "in-flight pair stream" in decisions[1].reason

    def test_planned_run_records_the_decision(self):
        benchmark = get_benchmark("joins_partsupp_cost")
        fragment = translated_fragment("joins_partsupp_cost")
        inputs = benchmark.make_inputs(200, 7)
        report = fragment.program.run(dict(inputs), ExecOptions(plan="auto")).report
        assert report.join is not None
        (level,) = report.join["levels"]
        assert level["strategy"] == "broadcast"
        assert level["relation"] == "part"
        assert report.plan.join_strategies == ("broadcast",)
        assert any("join part:" in r for r in report.plan.reasons)


# ----------------------------------------------------------------------
# §7.4 ordering: compiler-driven, tested against the baseline oracle


class TestJoinOrdering:
    def test_chain_cost_equals_the_baseline_formula(self):
        # supplier-first chain == _total_cost(partsupps, suppliers, parts)
        assert join_chain_cost([100, 10, 50]) == pytest.approx(
            2.0 * 100 * 10 * 0.001 + 2.0 * (2.0 * 100 * 10 * 0.001) * 50 * 0.001
        )

    @pytest.mark.parametrize(
        "parts,suppliers,partsupps",
        [(50, 20, 400), (20, 300, 400), (5, 5, 100), (1000, 2, 300)],
    )
    def test_choice_matches_the_baseline_oracle(self, parts, suppliers, partsupps):
        fragment = translated_fragment("joins_three_way_cost")
        summaries = [p.summary for p in fragment.program.programs]
        part, supplier, partsupp = __import__(
            "repro.workloads.datagen", fromlist=["part_supplier_tables"]
        ).part_supplier_tables(parts, suppliers, partsupps, seed=3)
        inputs = {"partsupp": partsupp, "supplier": supplier, "part": part}
        decision = choose_join_ordering(summaries, inputs)
        assert decision is not None
        oracle = estimate_join_order(parts, suppliers, partsupps)
        expected = (
            ["partsupp", "supplier", "part"]
            if oracle == "supplier_first"
            else ["partsupp", "part", "supplier"]
        )
        assert decision.order == expected

    def test_degenerate_cardinality_tie_breaks_deterministically(self):
        assert estimate_join_order(0, 10, 10) == "supplier_first"
        assert estimate_join_order(10, 0, 0) == "supplier_first"
        fragment = translated_fragment("joins_three_way_cost")
        summaries = [p.summary for p in fragment.program.programs]
        inputs = {"partsupp": [], "supplier": [], "part": []}
        decision = choose_join_ordering(summaries, inputs)
        assert decision is not None and decision.index == 0

    def test_run_records_ordering_in_plan_report(self):
        benchmark = get_benchmark("joins_three_way_cost")
        fragment = translated_fragment("joins_three_way_cost")
        inputs = benchmark.make_inputs(300, 7)
        report = fragment.program.run(
            dict(inputs), ExecOptions(plan="sequential")
        ).report
        ordering = report.join["ordering"]
        assert ordering["order"] == "partsupp ⋈ supplier ⋈ part"
        assert set(ordering["cardinalities"]) == {"partsupp", "supplier", "part"}
        assert report.implementation == "impl_0"
        # Flipping the relative sizes flips the chosen ordering.
        flipped = dict(inputs)
        flipped["supplier"], flipped["part"] = (
            inputs["part"] * 40,
            inputs["supplier"][:3],
        )
        decision = choose_join_ordering(
            [p.summary for p in fragment.program.programs], flipped
        )
        assert decision.order == ["partsupp", "part", "supplier"]


# ----------------------------------------------------------------------
# Reduce-side building blocks


class TestJoinFold:
    def test_fold_is_associative_and_order_preserving(self):
        fold = JoinFold()
        values = [(0, "a1"), (0, "a2"), (1, "b1"), (1, "b2")]
        left = fold(fold(fold(values[0], values[1]), values[2]), values[3])
        right = fold(fold(values[0], values[1]), fold(values[2], values[3]))
        assert left == right == ("⋈acc", ("a1", "a2"), ("b1", "b2"))

    def test_expand_emits_cross_product_in_order(self):
        expand = JoinExpand()
        acc = ("⋈acc", ("a1", "a2"), ("b1", "b2"))
        assert expand(("k", acc)) == [
            ("k", ("a1", "b1")),
            ("k", ("a1", "b2")),
            ("k", ("a2", "b1")),
            ("k", ("a2", "b2")),
        ]

    def test_single_sided_keys_expand_to_nothing(self):
        expand = JoinExpand()
        assert expand(("k", (0, "a1"))) == []
        assert expand(("k", (1, "b1"))) == []


# ----------------------------------------------------------------------
# Satellite: spill shuffle-key equality classes


class TestStableBytesEqualityClasses:
    MIXED_KEYS = [True, 1, 1.0, 0, False, -0.0, 0.0]

    def test_python_equal_keys_encode_identically(self):
        assert (
            _stable_bytes(True) == _stable_bytes(1) == _stable_bytes(1.0)
        )
        assert (
            _stable_bytes(False)
            == _stable_bytes(0)
            == _stable_bytes(0.0)
            == _stable_bytes(-0.0)
        )
        assert _stable_bytes(1) != _stable_bytes(0)
        assert _stable_bytes(2.5) != _stable_bytes(2)
        for partitions in (2, 3, 7):
            assert partition_of(True, partitions) == partition_of(1.0, partitions)
            assert partition_of(0.0, partitions) == partition_of(False, partitions)

    def test_mixed_numeric_keys_spill_identically_to_in_memory(self):
        """The ISSUE's regression: round-trip mixed-equality keys through
        a budget-forced spill and compare with the in-memory engine."""
        records = [(key, index) for index, key in enumerate(self.MIXED_KEYS * 30)]
        steps = [
            MapStep(_identity_pairs, complexity=1),
            ReduceStep(_sum_values, combine=True),
        ]
        in_memory = MultiprocessEngine(processes=0).run_pipeline(
            list(records), steps
        )
        spilled = MultiprocessEngine(processes=0, memory_budget=256).run_pipeline(
            list(records), steps
        )
        assert spilled.spilled and spilled.spill_stats["spill_runs"] > 0
        assert spilled.pairs == in_memory.pairs
        # Exactly two equality classes survive grouping: {1} and {0}.
        assert len(in_memory.pairs) == 2


def _identity_pairs(record):
    return [record]


def _sum_values(a, b):
    return a + b


# ----------------------------------------------------------------------
# Satellite: cycle-safe sizeof


class TestSizeofCycles:
    def test_self_referential_list_terminates(self):
        x: list = []
        x.append(x)
        assert sizeof(x) == 16  # one object header; the cycle charges 0

    def test_mutual_cycle_terminates(self):
        a: list = []
        b = [a]
        a.append(b)
        assert sizeof(a) == 32

    def test_diamond_sharing_charged_once(self):
        shared = [1, 2, 3]
        diamond = [shared, shared]
        # 16 (outer) + 16 (shared) + 3*4 (ints) — second edge free.
        assert sizeof(diamond) == 16 + 16 + 12

    def test_equal_but_distinct_values_still_charged_each(self):
        assert sizeof([[1], [1]]) == 16 + 2 * (16 + 4)
        assert sizeof((1, 1, 1)) == 8 + 3 * 4  # scalars never deduped

    def test_cyclic_dict_and_instance(self):
        from repro.lang.values import Instance

        d: dict = {}
        d["self"] = d
        assert sizeof(d) == 16 + 40  # header + the string key
        inst = Instance("Node", {"next": None})
        inst.fields["next"] = inst
        assert sizeof(inst) == 16


# ----------------------------------------------------------------------
# Cost model / codegen seams


class TestJoinSeams:
    def test_simulated_hadoop_and_flink_reject_joins_loudly(self):
        fragment = translated_fragment("joins_partsupp_cost")
        program = fragment.program.programs[0]
        benchmark = get_benchmark("joins_partsupp_cost")
        inputs = benchmark.make_inputs(40, 7)
        for backend in ("hadoop", "flink"):
            with pytest.raises(CodegenError, match="no join operator"):
                program.run(dict(inputs), backend=backend)

    def test_join_fragments_never_fuse_into_chains(self):
        from repro.graph.executor import run_graph

        compilation = compiled("joins_three_way_cost")
        benchmark = get_benchmark("joins_three_way_cost")
        run = run_graph(compilation.job_graph, benchmark.make_inputs(120, 7))
        assert all(not unit.fused for unit in run.schedule.units)

    def test_build_join_steps_honours_pinned_strategies(self):
        from repro.codegen.base import prepare_globals
        from repro.planner.plan import ExecutionPlan

        fragment = translated_fragment("joins_partsupp_cost")
        program = fragment.program.programs[0]
        benchmark = get_benchmark("joins_partsupp_cost")
        inputs = benchmark.make_inputs(60, 7)
        globals_env, _ = prepare_globals(program.analysis, inputs)
        plan = ExecutionPlan(backend="sequential", join_strategies=("reduce_side",))
        records, steps, _, _ = build_join_steps(
            program, globals_env, inputs, plan=plan
        )
        # Tagged union: left + right relations in one scanned stream.
        assert len(records) == len(inputs["partsupp"]) + len(inputs["part"])
        assert {tag for tag, _r in records} == {0, 1}
        assert any(isinstance(s.fn, JoinExpand) for s in steps if isinstance(s, MapStep))

"""Ablations of the design choices DESIGN.md calls out.

Beyond the paper's own ablation (Table 3), these isolate: combiners in
the engine, the dynamic monitor vs a static pick, the Wcsg penalty for
non-commutative-associative reductions, and two-phase verification vs
bounded-only acceptance.
"""

from __future__ import annotations

import pytest

from repro.cost import CostModel, CostWeights, Implementation, RuntimeMonitor
from repro.engine import EngineConfig, FrameworkProfile, SimSparkContext
from repro.workloads import datagen

from conftest import print_table
from repro.baselines.fig8_solutions import (
    string_match_solution_b,
    string_match_solution_c,
)


def _wordcount_seconds(combiners: bool, scale: float = 50_000) -> float:
    profile = FrameworkProfile(
        name="spark",
        startup_s=2.0,
        per_stage_overhead_s=0.35,
        record_cpu_factor=1.2,
        combiners=combiners,
    )
    config = EngineConfig(framework=profile, scale=scale)
    words = datagen.words(30_000, seed=61)
    context = SimSparkContext(config)
    (
        context.parallelize(words)
        .map_to_pair(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    return context.metrics.simulated_seconds


class TestCombinerAblation:
    def test_disabling_combiners_slows_reductions(self):
        with_combiners = _wordcount_seconds(True)
        without_combiners = _wordcount_seconds(False)
        assert without_combiners / with_combiners > 1.5


class TestMonitorAblation:
    def _setup(self):
        model = CostModel()
        b, c = string_match_solution_b(), string_match_solution_c()
        return RuntimeMonitor(
            implementations=[
                Implementation("b", b, model.summary_cost(b)),
                Implementation("c", c, model.summary_cost(c)),
            ]
        )

    def test_static_pick_is_wrong_on_some_skew(self):
        """Without the monitor, one fixed choice loses on some dataset.

        The adaptive monitor matches the per-skew optimum everywhere
        (Fig. 8); any static choice disagrees with it on at least one of
        the three skew levels.
        """
        monitor = self._setup()
        env = {"key1": "key1", "key2": "key2"}
        optima = []
        for probability in (0.0, 0.5, 0.95):
            words = datagen.keyword_text(4000, ["key1", "key2"], probability, seed=62)
            sample = [{"word": w} for w in words]
            index, _costs = monitor.choose(sample, env)
            optima.append(monitor.implementations[index].name)
        for static_choice in ("b", "c"):
            assert any(opt != static_choice for opt in optima)
        assert set(optima) == {"b", "c"}  # the monitor actually adapts


class TestWcsgAblation:
    def test_penalty_separates_safe_and_unsafe_reductions(self):
        model_default = CostModel()
        model_no_penalty = CostModel(weights=CostWeights(wcsg=1.0))
        summary = string_match_solution_b()
        ca = model_default.summary_cost(summary, commutative_associative=True)
        non_ca = model_default.summary_cost(summary, commutative_associative=False)
        flat = model_no_penalty.summary_cost(summary, commutative_associative=False)
        assert non_ca.evaluate({}) == pytest.approx(50.0 * (ca.evaluate({}) - 28.0) + 28.0)
        assert flat.evaluate({}) == pytest.approx(ca.evaluate({}))

    def test_report(self):
        model = CostModel()
        summary = string_match_solution_b()
        rows = [
            ["λr commutative-associative", f"{model.summary_cost(summary, True).evaluate({}):.0f}·N"],
            ["λr unsafe (Wcsg=50 penalty)", f"{model.summary_cost(summary, False).evaluate({}):.0f}·N"],
        ]
        print_table("Ablation — Wcsg penalty on StringMatch solution (b)", ["Configuration", "Cost"], rows)


class TestTwoPhaseAblation:
    def test_bounded_only_acceptance_admits_wrong_candidate(self, ):
        """Without phase two, the §4.1 counterexample ships broken code."""
        from repro.ir.builder import (
            const,
            emit,
            map_stage,
            max_,
            min_,
            pipeline,
            reduce_stage,
            scalar_output,
            summary,
            var,
        )
        from repro.verification import BoundedCheckConfig, BoundedChecker, FullVerifier
        from repro.lang.analysis import analyze_fragment, identify_fragments
        from repro.lang.parser import parse_program

        source = """
        int maxValue(int[] data, int n) {
          int best = Integer.MIN_VALUE;
          for (int i = 0; i < n; i++) {
            if (data[i] > best) best = data[i];
          }
          return best;
        }
        """
        program = parse_program(source)
        analysis = analyze_fragment(
            identify_fragments(program.functions[0])[0], program
        )
        sneaky = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("best"), min_(const(4), var("data")))),
                reduce_stage(max_(var("v1"), var("v2"))),
            ),
            scalar_output("best", default=-(2**31)),
        )
        bounded = BoundedChecker(analysis, config=BoundedCheckConfig(int_range=(-4, 4)))
        assert bounded.check(sneaky) is None  # phase one alone accepts it
        assert FullVerifier(analysis).verify(sneaky).status == "refuted"


def test_benchmark_combiner_ablation(benchmark):
    benchmark.pedantic(lambda: _wordcount_seconds(True), rounds=1, iterations=1)

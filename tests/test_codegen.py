"""Tests for code generation: executable plans, rendering, glue code."""

import pytest

from repro.codegen import (
    AdaptiveProgram,
    GeneratedProgram,
    build_adaptive_program,
    generated_loc,
    render,
    render_expr,
)
from repro.engine.config import EngineConfig
from repro.ir import builder
from repro.ir.builder import add, const, emit, map_stage, pipeline, reduce_stage, scalar_output, summary, var
from repro.lang.values import values_equal


@pytest.fixture(scope="module")
def rwm_summary():
    return builder.row_wise_mean_summary()


def make_program(analysis, summary_obj):
    from repro.verification.prover import FullVerifier

    proof = FullVerifier(analysis).verify(summary_obj)
    return GeneratedProgram(analysis=analysis, summary=summary_obj, proof=proof)


class TestBackendExecution:
    MAT = [[1, 2, 3], [4, 5, 6], [100, 200, 300]]
    EXPECTED = [2, 5, 200]

    @pytest.mark.parametrize("backend", ["spark", "hadoop", "flink"])
    def test_rwm_all_backends_agree(self, rwm_analysis, rwm_summary, backend):
        program = make_program(rwm_analysis, rwm_summary)
        outcome = program.run({"mat": self.MAT, "rows": 3, "cols": 3}, backend)
        assert outcome.outputs["m"] == self.EXPECTED
        assert outcome.metrics.simulated_seconds > 0

    def test_backend_relative_performance(self, rwm_analysis, rwm_summary):
        times = {}
        config = EngineConfig(scale=50000)
        program = make_program(rwm_analysis, rwm_summary)
        for backend in ("spark", "flink", "hadoop"):
            outcome = program.run(
                {"mat": self.MAT * 50, "rows": 150, "cols": 3}, backend, config=config
            )
            times[backend] = outcome.metrics.simulated_seconds
        assert times["spark"] < times["flink"] < times["hadoop"]

    def test_scalar_output_binding(self, sum_analysis):
        s = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("total"), var("data"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=0),
        )
        program = make_program(sum_analysis, s)
        outcome = program.run({"data": [5, 6, 7], "n": 3})
        assert outcome.outputs == {"total": 18}

    def test_empty_input_uses_default(self, sum_analysis):
        s = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("total"), var("data"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=0),
        )
        program = make_program(sum_analysis, s)
        outcome = program.run({"data": [], "n": 0})
        assert outcome.outputs == {"total": 0}

    def test_non_ca_reduce_uses_group_by_key(self, sum_analysis):
        """keep-first λr is not commutative: Spark plan must groupByKey."""
        s = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("first"), var("data"))),
                reduce_stage(var("v1")),
            ),
            scalar_output("first", default=None),
        )
        program = make_program(sum_analysis, s)
        outcome = program.run({"data": [9, 8, 7], "n": 3})
        assert outcome.outputs["first"] == 9
        stage_names = [st.name for st in outcome.metrics.stages]
        assert any("values" in n for n in stage_names)  # groupByKey+mapValues


class TestRendering:
    def test_spark_rendering_matches_fig1(self, rwm_summary):
        code = render(rwm_summary, "spark")
        assert "mapToPair" in code
        assert "reduceByKey((v1, v2) -> (v1 + v2))" in code
        assert "(v / cols)" in code

    def test_spark_non_ca_renders_group_by_key(self, rwm_summary):
        code = render(rwm_summary, "spark", commutative_associative=False)
        assert "groupByKey" in code
        assert "reduceByKey" not in code

    def test_hadoop_rendering_has_mapper_reducer(self, rwm_summary):
        code = render(rwm_summary, "hadoop")
        assert "extends Mapper" in code
        assert "extends Reducer" in code
        assert "combiner" in code  # CA λr gets the combiner comment

    def test_flink_rendering(self, rwm_summary):
        code = render(rwm_summary, "flink")
        assert "ExecutionEnvironment" in code
        assert "groupBy(0).reduce" in code

    def test_render_guarded_emit(self):
        s = summary(
            pipeline(
                "d",
                map_stage(
                    ("v",),
                    emit(const("k"), var("v"), when=builder.lt(const(0), var("v"))),
                ),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("out", default=0),
        )
        code = render(s, "spark")
        assert "if ((0 < v))" in code

    def test_render_expr_functions(self):
        from repro.ir.nodes import CallFn, Var

        assert render_expr(CallFn("abs", (Var("x"),))) == "Math.abs(x)"
        assert render_expr(CallFn("date_before", (Var("a"), Var("b")))) == "a.before(b)"

    def test_generated_loc_counts_lines(self, rwm_summary):
        assert 3 <= generated_loc(rwm_summary, "spark") <= 15


class TestAdaptiveProgram:
    def test_build_prunes_and_runs(self, sum_search, sum_analysis):
        adaptive = build_adaptive_program(sum_analysis, sum_search.summaries)
        assert isinstance(adaptive, AdaptiveProgram)
        assert 1 <= len(adaptive.programs) <= len(sum_search.summaries)
        outcome = adaptive.run({"data": [1, 2, 3, 4], "n": 4})
        assert outcome.outputs == {"total": 10}
        assert outcome.report.implementation is not None

    def test_run_config_reaches_price(self, sum_search, sum_analysis, monkeypatch):
        from repro.codegen import base

        adaptive = build_adaptive_program(sum_analysis, sum_search.summaries)
        config = EngineConfig(scale=123.0)
        priced_under = []
        price = base.price

        def recording_price(framework, engine_config, steps, result):
            priced_under.append(engine_config)
            return price(framework, engine_config, steps, result)

        monkeypatch.setattr(base, "price", recording_price)
        adaptive.run({"data": [1, 2, 3, 4], "n": 4}, config=config)
        assert len(priced_under) == 1 and priced_under[0] is config
        assert not any(hasattr(p, "engine_config") for p in adaptive.programs)

    def test_outputs_match_interpreter(self, rwm_search, rwm_analysis):
        adaptive = build_adaptive_program(rwm_analysis, rwm_search.summaries)
        mat = [[3, 9], [12, 6]]
        outputs = adaptive.run({"mat": mat, "rows": 2, "cols": 2}).outputs
        from repro.lang.interpreter import Interpreter

        expected = Interpreter(rwm_analysis.program).call_function(
            "rwm", [mat, 2, 2]
        )
        assert values_equal(outputs["m"], expected)

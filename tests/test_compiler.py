"""End-to-end tests for the CasperCompiler pipeline (Fig. 2)."""

import pytest

from repro import ExecOptions, SearchConfig, translate
from repro.compiler import CasperCompiler
from repro.errors import AnalysisError
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import values_equal
from tests.conftest import Q6_SOURCE, RWM_SOURCE, SUM_SOURCE, WORDCOUNT_SOURCE


class TestTranslatePipeline:
    def test_sum_end_to_end(self):
        result = translate(SUM_SOURCE)
        assert result.identified == 1
        assert result.translated == 1
        frag = result.fragments[0]
        outputs = frag.program.run({"data": [10, 20, 30], "n": 3}).outputs
        assert outputs == {"total": 60}

    def test_rwm_end_to_end_matches_interpreter(self):
        result = translate(RWM_SOURCE)
        mat = [[i * j for j in range(4)] for i in range(5)]
        outputs = result.fragments[0].program.run(
            {"mat": mat, "rows": 5, "cols": 4}
        ).outputs
        expected = Interpreter(parse_program(RWM_SOURCE)).call_function(
            "rwm", [mat, 5, 4]
        )
        assert values_equal(outputs["m"], expected)

    def test_q6_end_to_end(self):
        from repro.workloads import datagen

        result = translate(Q6_SOURCE, "query6")
        assert result.translated == 1
        items = datagen.lineitems(500, seed=3)
        outputs = result.fragments[0].program.run({"lineitem": items}).outputs
        expected = Interpreter(parse_program(Q6_SOURCE)).call_function(
            "query6", [items]
        )
        assert values_equal(outputs["revenue"], expected)

    def test_wordcount_end_to_end(self):
        result = translate(WORDCOUNT_SOURCE)
        outputs = result.fragments[0].program.run({"words": ["x", "y", "x"]}).outputs
        assert outputs == {"counts": {"x": 2, "y": 1}}

    def test_rendered_code_available(self):
        result = translate(SUM_SOURCE)
        code = result.fragments[0].rendered_code("spark")
        assert "reduceByKey" in code

    def test_untranslated_fragment_reports_reason(self):
        source = """
        double[] blur(double[] img, int n) {
          double[] out = new double[n];
          double prev = 0;
          for (int i = 0; i < n; i++) {
            prev = 0.5 * prev + 0.5 * img[i];
            out[i] = prev;
          }
          return out;
        }
        """
        result = translate(source, search_config=SearchConfig(timeout_seconds=30))
        assert result.translated == 0
        assert result.fragments[0].failure_reason is not None

    def test_multiple_functions_require_name(self):
        source = "int f() { return 1; } int g() { return 2; }"
        with pytest.raises(AnalysisError):
            translate(source)

    def test_compiler_records_time_and_failures(self):
        compiler = CasperCompiler()
        result = compiler.translate_source(SUM_SOURCE)
        assert result.elapsed_seconds > 0
        assert result.tp_failures >= 0

    def test_backend_selection(self):
        program = translate(SUM_SOURCE).fragments[0].program
        for backend in ("spark", "hadoop", "flink"):
            ran = program.run({"data": [1, 1, 1], "n": 3}, ExecOptions(plan=backend))
            assert ran.outputs == {"total": 3}
            assert ran.report.backend_used == backend


class TestAliasingGuard:
    def test_distinct_array_arguments_fine(self):
        # The paper wraps translated code in a runtime alias check; our
        # zipped-view execution is correct when inputs are distinct arrays.
        source = """
        double dot(double[] x, double[] y, int n) {
          double s = 0;
          for (int i = 0; i < n; i++) s += x[i] * y[i];
          return s;
        }
        """
        result = translate(source)
        outputs = result.fragments[0].program.run(
            {"x": [1.0, 2.0], "y": [3.0, 4.0], "n": 2}
        ).outputs
        assert outputs == {"s": 11.0}

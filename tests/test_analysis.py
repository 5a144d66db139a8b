"""Tests for program analysis: liveness, scan, views, fragments."""

import pytest

from repro.errors import AnalysisError
from repro.lang.analysis import (
    analyze_fragment,
    build_type_env,
    desugar_stmt,
    expr_defs,
    expr_uses,
    extract_dataset_view,
    identify_fragments,
    live_before,
    outermost_loops,
    scan_fragment,
    stmt_defs,
    stmt_uses,
)
from repro.lang import ast
from repro.lang.parser import parse_function, parse_program
from repro.lang.types import DOUBLE, INT, STRING


def first_loop(source, name=None):
    program = parse_program(source)
    func = program.function(name) if name else program.functions[0]
    return outermost_loops(func.body.stmts)[0], func, program


class TestUseDef:
    def test_expr_uses_simple(self):
        func = parse_function("int f(int a, int b) { return a + b * 2; }")
        assert expr_uses(func.body.stmts[0].value) == {"a", "b"}

    def test_expr_defs_assignment(self):
        func = parse_function("int f(int a) { a = a + 1; return a; }")
        stmt = func.body.stmts[0]
        assert expr_defs(stmt.expr) == {"a"}
        assert "a" in expr_uses(stmt.expr)

    def test_array_store_defines_container(self):
        func = parse_function("int f(int[] m, int i) { m[i] = 1; return 0; }")
        assert expr_defs(func.body.stmts[0].expr) == {"m"}
        assert expr_uses(func.body.stmts[0].expr) >= {"m", "i"}

    def test_collection_mutator_defines_receiver(self):
        func = parse_function(
            "int f(List<int> out, int x) { out.add(x); return 0; }"
        )
        assert expr_defs(func.body.stmts[0].expr) == {"out"}

    def test_stmt_defs_includes_declarations(self):
        func = parse_function("int f() { int a = 1; return a; }")
        assert stmt_defs(func.body.stmts[0]) == {"a"}


class TestLiveness:
    def test_live_before_sequence(self):
        func = parse_function("int f(int a, int b) { int c = a + b; return c; }")
        live = live_before(func.body.stmts, set())
        assert live == {"a", "b"}

    def test_dead_assignment_not_live(self):
        func = parse_function("int f(int a) { int c = a; c = 5; return c; }")
        live = live_before(func.body.stmts[1:], set())
        assert "c" not in live

    def test_loop_keeps_accumulator_live(self):
        func = parse_function(
            "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
        )
        live = live_before(func.body.stmts[1:], set())
        assert "s" in live and "d" in live and "n" in live


class TestTypeInference:
    def test_infer_variable_types(self):
        program = parse_program("double f(int a, double b, String s) { return b; }")
        func = program.functions[0]
        env = build_type_env(func, program)
        assert env.lookup("a") == INT
        assert env.lookup("b") == DOUBLE
        assert env.lookup("s") == STRING


class TestScan:
    def test_scan_operators_and_constants(self):
        func = parse_function(
            "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) if (d[i] > 10) s += d[i] * 2; return s; }"
        )
        result = scan_fragment(func.body.stmts)
        assert {"+", "*", ">", "<"} <= result.operators
        assert (10, INT) in result.constants
        assert result.has_conditionals

    def test_scan_methods(self):
        func = parse_function(
            "double f(double[] d, int n) { double s = 0; for (int i = 0; i < n; i++) s += Math.abs(d[i]); return s; }"
        )
        result = scan_fragment(func.body.stmts)
        assert "Math.abs" in result.methods

    def test_scan_nested_loops_flag(self):
        func = parse_function(
            "int f(int[][] m, int r, int c) { int s = 0; for (int i = 0; i < r; i++) for (int j = 0; j < c; j++) s += m[i][j]; return s; }"
        )
        assert scan_fragment(func.body.stmts).has_nested_loops


class TestDatasetViews:
    def test_array1d_view(self):
        loop, func, program = first_loop(
            "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
        )
        view = extract_dataset_view(loop, build_type_env(func, program), program)
        assert view.kind == "array1d"
        assert view.sources == ["d"]
        assert view.field_names == ["i", "d"]

    def test_zipped_arrays_view(self):
        loop, func, program = first_loop(
            "double f(double[] x, double[] y, int n) { double s = 0; for (int i = 0; i < n; i++) s += x[i] * y[i]; return s; }"
        )
        view = extract_dataset_view(loop, build_type_env(func, program), program)
        assert view.sources == ["x", "y"]

    def test_array2d_view(self):
        loop, func, program = first_loop(
            "int f(int[][] m, int r, int c) { int s = 0; for (int i = 0; i < r; i++) for (int j = 0; j < c; j++) s += m[i][j]; return s; }"
        )
        view = extract_dataset_view(loop, build_type_env(func, program), program)
        assert view.kind == "array2d"
        assert view.field_names == ["i", "j", "v"]

    def test_foreach_struct_view_flattens_fields(self):
        loop, func, program = first_loop(
            "class P { int a; int b; } int f(List<P> ps) { int s = 0; for (P p : ps) s += p.a; return s; }",
            "f",
        )
        view = extract_dataset_view(loop, build_type_env(func, program), program)
        assert view.kind == "foreach"
        assert view.field_names == ["a", "b"]
        assert view.element_class == "P"

    def test_output_array_not_a_source(self):
        loop, func, program = first_loop(
            "int[] f(int[] x, int n) { int[] y = new int[n]; for (int i = 0; i < n; i++) y[i] = x[i] + 1; return y; }"
        )
        view = extract_dataset_view(loop, build_type_env(func, program), program)
        assert view.sources == ["x"]

    def test_materialize_2d(self):
        loop, func, program = first_loop(
            "int f(int[][] m, int r, int c) { int s = 0; for (int i = 0; i < r; i++) for (int j = 0; j < c; j++) s += m[i][j]; return s; }"
        )
        view = extract_dataset_view(loop, build_type_env(func, program), program)
        elements = view.materialize({"m": [[1, 2], [3, 4]]})
        assert elements == [
            {"i": 0, "j": 0, "v": 1},
            {"i": 0, "j": 1, "v": 2},
            {"i": 1, "j": 0, "v": 3},
            {"i": 1, "j": 1, "v": 4},
        ]

    def test_non_counter_loop_rejected(self):
        loop, func, program = first_loop(
            "int f(int n) { int s = 0; for (int i = n; i > 0; i--) s += i; return s; }"
        )
        with pytest.raises(AnalysisError):
            extract_dataset_view(loop, build_type_env(func, program), program)


class TestNormalization:
    def test_desugar_compound_assignment(self):
        func = parse_function("int f(int a) { a += 2; return a; }")
        stmt = desugar_stmt(func.body.stmts[0])
        assert stmt.expr.op == "="
        assert isinstance(stmt.expr.value, ast.BinOp)

    def test_desugar_increment(self):
        func = parse_function("int f(int a) { a++; return a; }")
        stmt = desugar_stmt(func.body.stmts[0])
        assert isinstance(stmt.expr, ast.Assign)


class TestFragments:
    def test_identify_fragment_and_prelude(self, q6_analysis):
        fragment = q6_analysis.fragment
        assert len(fragment.prelude) == 3  # dt1, dt2, revenue
        assert q6_analysis.input_vars.keys() == {"lineitem"}
        assert q6_analysis.output_vars.keys() == {"revenue"}

    def test_prelude_constants_evaluated(self, q6_analysis):
        assert q6_analysis.prelude_constants["revenue"] == 0.0
        assert q6_analysis.prelude_constants["dt1"].get("epoch") > 0

    def test_rwm_analysis(self, rwm_analysis):
        assert rwm_analysis.input_vars.keys() == {"mat", "rows", "cols"}
        assert rwm_analysis.output_vars.keys() == {"m"}
        assert rwm_analysis.features.multidimensional
        assert rwm_analysis.features.nested_loops

    def test_fragment_without_outputs_rejected(self):
        program = parse_program(
            "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return 0; }"
        )
        fragment = identify_fragments(program.functions[0])[0]
        with pytest.raises(AnalysisError):
            analyze_fragment(fragment, program)

    def test_multiple_fragments_identified(self):
        program = parse_program(
            """
            int f(int[] d, int n) {
              int a = 0;
              for (int i = 0; i < n; i++) a += d[i];
              int b = 0;
              for (int i = 0; i < n; i++) b += d[i] * d[i];
              return a + b;
            }
            """
        )
        fragments = identify_fragments(program.functions[0])
        assert len(fragments) == 2
        assert fragments[0].id == "f#0" and fragments[1].id == "f#1"

    def test_loc_metric_positive(self, rwm_analysis):
        assert rwm_analysis.loc >= 5


@pytest.mark.parametrize("braces", [True, False])
def test_fragment_under_a_branch_keeps_its_prelude(braces):
    # An outermost loop need not sit in the function body's own list:
    # the prelude is read from whichever statement list holds it.
    loop = "{ int s = 0; for (int i = 0; i < n; i++) s += a[i]; }"
    if not braces:
        loop = "for (int i = 0; i < n; i++) n += a[i];"
    program = parse_program(
        f"int f(int[] a, int n, boolean b) {{ if (b) {loop} return n; }}"
    )
    [fragment] = identify_fragments(program.functions[0])
    assert len(fragment.prelude) == (1 if braces else 0)


def test_parser_skips_annotations_and_modifiers():
    program = parse_program(
        "@SuppressWarnings(\"unchecked\") public static final int f(int[] a) {"
        " List<Integer> xs = new ArrayList<>(); Map<String, Integer> m = new HashMap();"
        " return a[0]; }"
    )
    assert program.functions[0].name == "f"

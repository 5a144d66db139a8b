"""Tests for the IR: nodes, evaluator, map/reduce/join semantics, fold ext."""

import math

import pytest

from repro import translate
from repro.errors import InterpreterError, IRError
from repro.lang.interpreter import run_function
from repro.options import ExecOptions
from repro.verification.algebra import normalize
from repro.ir import (
    FoldStage,
    FoldSummary,
    builder,
    eval_expr,
    evaluate_fold,
    evaluate_summary,
    expr_size,
    expr_vars,
    fold_to_mapreduce,
    format_summary,
    run_join,
    run_map,
    run_reduce,
)
from repro.ir.builder import (
    add,
    and_,
    cond,
    const,
    div,
    emit,
    eq,
    lt,
    map_stage,
    max_,
    mul,
    pipeline,
    proj,
    reduce_stage,
    scalar_output,
    summary,
    tup,
    var,
    whole_output,
)
from repro.ir.nodes import BinOp, Const, Var


class TestExprEval:
    def test_arithmetic(self):
        expr = add(mul(const(3), var("x")), const(1))
        assert eval_expr(expr, {"x": 4}) == 13

    def test_java_int_division(self):
        expr = div(var("a"), var("b"))
        assert eval_expr(expr, {"a": -7, "b": 2}) == -3

    def test_float_division(self):
        expr = div(const(7.0), const(2.0))
        assert eval_expr(expr, {}) == 3.5

    def test_division_by_zero_raises_irerror(self):
        with pytest.raises(IRError):
            eval_expr(div(const(1), const(0)), {})

    def test_conditional(self):
        expr = cond(lt(var("x"), const(0)), const(-1), const(1))
        assert eval_expr(expr, {"x": -5}) == -1
        assert eval_expr(expr, {"x": 5}) == 1

    def test_tuple_and_projection(self):
        expr = proj(tup(var("a"), var("b")), 1)
        assert eval_expr(expr, {"a": 1, "b": 2}) == 2

    def test_short_circuit_logic(self):
        expr = and_(eq(var("x"), const(0)), lt(const(0), var("x")))
        assert eval_expr(expr, {"x": 0}) is False

    def test_library_functions(self):
        assert eval_expr(max_(const(3), const(7)), {}) == 7
        assert eval_expr(builder.min_(const(3), const(7)), {}) == 3

    def test_lookup_function(self):
        from repro.ir.nodes import CallFn

        expr = CallFn("lookup", (var("arr"), var("i")))
        assert eval_expr(expr, {"arr": [10, 20, 30], "i": 2}) == 30

    def test_unbound_variable_raises(self):
        with pytest.raises(IRError):
            eval_expr(var("nope"), {})

    def test_expr_vars_and_size(self):
        expr = add(mul(var("x"), var("y")), var("x"))
        assert expr_vars(expr) == {"x", "y"}
        assert expr_size(expr) == 2


class TestOperatorSemantics:
    def test_run_map_emits_union(self):
        lam = builder.map_lambda(("v",), emit(var("v"), const(1)))
        pairs = run_map([{"v": "a"}, {"v": "b"}, {"v": "a"}], lam, {})
        assert pairs == [("a", 1), ("b", 1), ("a", 1)]

    def test_run_map_guarded_emit(self):
        lam = builder.map_lambda(
            ("v",), emit(const("k"), var("v"), when=lt(const(0), var("v")))
        )
        pairs = run_map([{"v": 5}, {"v": -3}, {"v": 2}], lam, {})
        assert pairs == [("k", 5), ("k", 2)]

    def test_run_map_multiple_emits(self):
        lam = builder.map_lambda(
            ("v",), emit(const("a"), var("v")), emit(const("b"), mul(var("v"), const(2)))
        )
        pairs = run_map([{"v": 3}], lam, {})
        assert pairs == [("a", 3), ("b", 6)]

    def test_run_reduce_groups_by_key(self):
        lam = builder.reduce_lambda(add(var("v1"), var("v2")))
        result = run_reduce([("a", 1), ("b", 5), ("a", 2)], lam, {})
        assert dict(result) == {"a": 3, "b": 5}

    def test_run_reduce_fold_order_is_dataset_order(self):
        # Non-commutative λr: keep-first semantics distinguishes order.
        lam = builder.reduce_lambda(var("v1"))
        result = run_reduce([("k", 10), ("k", 20), ("k", 30)], lam, {})
        assert result == [("k", 10)]

    def test_run_join_matches_keys(self):
        left = [(1, "a"), (2, "b")]
        right = [(1, "x"), (1, "y"), (3, "z")]
        assert run_join(left, right) == [(1, ("a", "x")), (1, ("a", "y"))]


class TestSummaryEvaluation:
    def test_row_wise_mean_summary(self):
        s = builder.row_wise_mean_summary()
        datasets = {
            "mat": [
                {"i": 0, "j": 0, "v": 2},
                {"i": 0, "j": 1, "v": 4},
                {"i": 1, "j": 0, "v": 10},
                {"i": 1, "j": 1, "v": 20},
            ]
        }
        out = evaluate_summary(s, datasets, {"cols": 2}, output_sizes={"m": 2})
        assert out == {"m": [3, 15]}

    def test_scalar_output_default_on_empty(self):
        s = summary(
            pipeline(
                "d",
                map_stage(("v",), emit(const("total"), var("v"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=0),
        )
        assert evaluate_summary(s, {"d": []}, {}) == {"total": 0}

    def test_projection_binding(self):
        from repro.ir.nodes import OutputBinding

        s = summary(
            pipeline(
                "d",
                map_stage(("v",), emit(const("t"), tup(var("v"), mul(var("v"), const(2))))),
                reduce_stage(tup(add(proj(var("v1"), 0), proj(var("v2"), 0)),
                                 add(proj(var("v1"), 1), proj(var("v2"), 1)))),
            ),
            OutputBinding(var="a", kind="keyed", key=const("t"), default=0, project=0),
            OutputBinding(var="b", kind="keyed", key=const("t"), default=0, project=1),
        )
        out = evaluate_summary(s, {"d": [{"v": 1}, {"v": 2}]}, {})
        assert out == {"a": 3, "b": 6}

    def test_map_container_output(self):
        s = summary(
            pipeline(
                "words",
                map_stage(("w",), emit(var("w"), const(1))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            whole_output("counts", container="map", default=None),
        )
        data = [{"w": w} for w in ["a", "b", "a"]]
        assert evaluate_summary(s, {"words": data}, {}) == {"counts": {"a": 2, "b": 1}}

    def test_bag_container_preserves_order(self):
        s = summary(
            pipeline("d", map_stage(("v",), emit(const(0), mul(var("v"), const(2))))),
            whole_output("out", container="bag", default=None),
        )
        data = [{"v": v} for v in [3, 1, 2]]
        assert evaluate_summary(s, {"d": data}, {}) == {"out": [6, 2, 4]}

    def test_format_summary_mentions_stages(self):
        text = format_summary(builder.row_wise_mean_summary())
        assert "map(reduce(map(mat" in text
        assert "λr" in text

    def test_summaries_hashable_for_blocking(self):
        a = builder.row_wise_mean_summary()
        b = builder.row_wise_mean_summary()
        assert hash(a) == hash(b)
        assert a == b


class TestFoldExtension:
    def test_evaluate_fold(self):
        fold = FoldSummary(
            source="d",
            stage=FoldStage(init=Const(0, "int"), acc_param="acc",
                            body=add(var("acc"), var("v"))),
            output_var="total",
        )
        data = [{"v": v} for v in [1, 2, 3]]
        assert evaluate_fold(fold, {"d": data}, {}) == 6

    def test_fold_lowering_to_mapreduce(self):
        fold = FoldSummary(
            source="d",
            stage=FoldStage(init=Const(0, "int"), acc_param="acc",
                            body=add(var("acc"), var("v"))),
            output_var="total",
        )
        lowered = fold_to_mapreduce(fold, var("v"), add(var("v1"), var("v2")))
        data = [{"v": v} for v in [4, 5, 6]]
        out = evaluate_summary(lowered, {"d": data}, {})
        assert out["total"] == 15
        assert out["total"] == evaluate_fold(fold, {"d": data}, {})


# Java's double ``%`` — (dividend, divisor, Java's value) — as every layer
# must compute it: the interpreter (the oracle), the IR evaluator the
# compiled kernels share, and the prover's constant folder.
JAVA_DOUBLE_REM = [
    (5.5, 0.0, math.nan),
    (5.5, -0.0, math.nan),
    (1e17, 3.0, 1.0),
    (3.0, math.inf, 3.0),
    (math.inf, 2.0, math.nan),
    (-math.inf, 2.0, math.nan),
    (math.nan, 2.0, math.nan),
    (-7.5, 2.0, -1.5),
    (-0.0, 2.0, -0.0),
]

REM_SUM = """
double remSum(double[] v, int n, double b) {
    double t = 0;
    for (int i = 0; i < n; i++) { t += v[i] % b; }
    return t;
}
"""


def _same_double(got, want):
    if math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestJavaDoubleRemainder:
    @pytest.mark.parametrize("a,b,want", JAVA_DOUBLE_REM)
    def test_interpreter(self, a, b, want):
        got = run_function(REM_SUM.replace("t += v[i] % b", "t = v[i] % b"), "remSum", [[a], 1, b])
        assert _same_double(got, want)

    @pytest.mark.parametrize("a,b,want", JAVA_DOUBLE_REM)
    def test_ir_evaluator(self, a, b, want):
        got = eval_expr(BinOp("%", Var("a"), Var("b")), {"a": a, "b": b})
        assert _same_double(got, want)

    @pytest.mark.parametrize("a,b,want", JAVA_DOUBLE_REM)
    def test_constant_folder(self, a, b, want):
        folded = normalize(BinOp("%", Const(a, "double"), Const(b, "double")))
        if b == 0:  # a zero divisor is left unfolded
            assert isinstance(folded, BinOp)
        else:
            assert isinstance(folded, Const) and _same_double(folded.value, want)

    def test_constant_folder_divides_like_java(self):
        folded = normalize(BinOp("/", Const(-7, "int"), Const(2, "int")))
        assert folded == Const(-3, "int")

    def test_translated_sum_on_sequential(self):
        fragment = translate(REM_SUM).fragments[0]
        for a, b, want in JAVA_DOUBLE_REM:
            outputs = fragment.program.run(
                {"v": [a], "n": 1, "b": b}, ExecOptions(plan="sequential")
            ).outputs
            assert _same_double(outputs["t"], 0.0 + want), (a, b)

    def test_integer_zero_divisor_keeps_each_layers_error(self):
        with pytest.raises(IRError, match="integer remainder by zero"):
            eval_expr(BinOp("%", Const(7, "int"), Const(0, "int")), {})
        with pytest.raises(InterpreterError, match="^remainder by zero"):
            run_function("int f(int a, int b) { return a % b; }", "f", [7, 0])


class TestEvaluatorRefusals:
    """The evaluator is the reference oracle: malformed IR ends in IRError."""

    def _summary(self, stages, **binding):
        from repro.ir.nodes import OutputBinding, Pipeline, Summary

        return Summary(Pipeline("d", tuple(stages)), (OutputBinding("out", **binding),))

    def _map(self):
        from repro.ir.nodes import Emit, MapLambda, MapStage

        return MapStage(MapLambda(("x",), (Emit(Var("x"), Var("x")),)))

    def _reduce(self):
        from repro.ir.nodes import ReduceLambda, ReduceStage

        return ReduceStage(ReduceLambda(add(var("v1"), var("v2"))))

    def test_projection_index_out_of_range(self):
        with pytest.raises(IRError, match="projection index 2 out of range"):
            eval_expr(proj(tup(const(1), const(2)), 2), {})

    @pytest.mark.parametrize(
        "stages, datasets, message",
        [
            ("map", {}, "unknown dataset 'd'"),
            ("reduce", {"d": []}, "reduce applied before any map stage"),
            ("join", {"d": []}, "join applied before any map stage"),
            ("base", {"d": []}, "unknown stage Stage"),
        ],
    )
    def test_malformed_pipeline(self, stages, datasets, message):
        from repro.ir.nodes import JoinStage, Pipeline, Stage

        stage = {
            "map": self._map(),
            "reduce": self._reduce(),
            "join": JoinStage(Pipeline("d", (self._map(),))),
            "base": Stage(),
        }[stages]
        summary = self._summary([stage], kind="keyed")
        with pytest.raises(IRError, match=message):
            evaluate_summary(summary, datasets, {})

    def test_malformed_expressions(self):
        from repro.ir.nodes import IRExpr, Proj, UnOp

        with pytest.raises(IRError, match="unknown IR operator"):
            eval_expr(BinOp("??", const(1), const(2)), {})
        with pytest.raises(IRError, match="unknown unary operator"):
            eval_expr(UnOp("?", const(1)), {})
        with pytest.raises(IRError, match="projection on non-tuple"):
            eval_expr(Proj(const(1), 0), {})
        with pytest.raises(IRError, match="unknown IR expression IRExpr"):
            eval_expr(IRExpr(), {})

    def test_malformed_summaries(self):
        with pytest.raises(IRError, match="pipeline has no map stage"):
            evaluate_summary(self._summary([], kind="keyed"), {"d": []}, {})
        datasets = {"d": [{"x": 1}]}
        projected = self._summary([self._map()], kind="keyed", key=const(1), project=0)
        with pytest.raises(IRError, match="output projection on non-tuple result"):
            evaluate_summary(projected, datasets, {})
        with pytest.raises(IRError, match="unknown output binding kind 'nope'"):
            evaluate_summary(self._summary([self._map()], kind="nope"), datasets, {})

    @pytest.mark.parametrize(
        "container, expected", [("set", {1, 2}), ("array", [None, 1, 2])]
    )
    def test_whole_containers(self, container, expected):
        summary = self._summary([self._map()], kind="whole", container=container)
        outputs = evaluate_summary(summary, {"d": [{"x": 1}, {"x": 2}]}, {})
        assert outputs["out"] == expected

    def test_unknown_container(self):
        summary = self._summary([self._map()], kind="whole", container="tree")
        with pytest.raises(IRError, match="unknown container 'tree'"):
            evaluate_summary(summary, {"d": [{"x": 1}]}, {})

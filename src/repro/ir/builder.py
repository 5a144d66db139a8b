"""Convenience constructors for building IR summaries by hand.

Used by tests, examples, the MOLD baseline (which builds summaries from
rules), and documentation.  The synthesizer builds the same nodes through
the grammar enumerator instead.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    Emit,
    IRExpr,
    MapLambda,
    MapStage,
    OutputBinding,
    Pipeline,
    Proj,
    ReduceLambda,
    ReduceStage,
    Stage,
    Summary,
    TupleExpr,
    Var,
)


def const(value: Any) -> Const:
    """Build a Const with the kind inferred from the Python value."""
    if isinstance(value, bool):
        return Const(value, "boolean")
    if isinstance(value, int):
        return Const(value, "int")
    if isinstance(value, float):
        return Const(value, "double")
    if isinstance(value, str):
        return Const(value, "String")
    raise TypeError(f"no Const kind for {type(value).__name__}")


def var(name: str, kind: str = "int") -> Var:
    return Var(name, kind)


def add(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("+", a, b)


def sub(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("-", a, b)


def mul(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("*", a, b)


def div(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("/", a, b)


def eq(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("==", a, b)


def lt(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("<", a, b)


def and_(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("&&", a, b)


def or_(a: IRExpr, b: IRExpr) -> BinOp:
    return BinOp("||", a, b)


def min_(a: IRExpr, b: IRExpr) -> CallFn:
    return CallFn("min", (a, b))


def max_(a: IRExpr, b: IRExpr) -> CallFn:
    return CallFn("max", (a, b))


def tup(*items: IRExpr) -> TupleExpr:
    return TupleExpr(tuple(items))


def proj(base: IRExpr, index: int) -> Proj:
    return Proj(base, index)


def cond(test: IRExpr, then: IRExpr, other: IRExpr) -> Cond:
    return Cond(test, then, other)


def emit(key: IRExpr, value: IRExpr, when: Optional[IRExpr] = None) -> Emit:
    return Emit(key=key, value=value, cond=when)


def map_lambda(params: Sequence[str], *emits: Emit) -> MapLambda:
    return MapLambda(tuple(params), tuple(emits))


def reduce_lambda(body: IRExpr) -> ReduceLambda:
    return ReduceLambda(body)


def map_stage(params: Sequence[str], *emits: Emit) -> MapStage:
    return MapStage(map_lambda(params, *emits))


def reduce_stage(body: IRExpr) -> ReduceStage:
    return ReduceStage(reduce_lambda(body))


def pipeline(source: str, *stages: Stage) -> Pipeline:
    return Pipeline(source, tuple(stages))


def scalar_output(name: str, default: Any = None, key: Optional[IRExpr] = None) -> OutputBinding:
    """Bind a scalar output ``v = MR[vid]`` (key defaults to the var name)."""
    return OutputBinding(
        var=name,
        kind="keyed",
        key=key if key is not None else Const(name, "String"),
        default=default,
    )


def whole_output(name: str, container: str = "array", default: Any = 0) -> OutputBinding:
    """Bind a container output ``v = MR``."""
    return OutputBinding(var=name, kind="whole", container=container, default=default)


def summary(pipe: Pipeline, *outputs: OutputBinding) -> Summary:
    return Summary(pipe, tuple(outputs))


# The paper's running example (Fig. 1): row-wise mean.
def row_wise_mean_summary(cols_var: str = "cols") -> Summary:
    """m = map(reduce(map(mat, λm1), λr), λm2) — the Fig. 1 summary."""
    lm1 = map_stage(("i", "j", "v"), emit(var("i"), var("v")))
    lr = reduce_stage(add(var("v1"), var("v2")))
    lm2 = map_stage(("k", "v"), emit(var("k"), div(var("v"), var(cols_var))))
    return summary(
        pipeline("mat", lm1, lr, lm2),
        whole_output("m", container="array", default=0),
    )

"""Reference evaluator for IR summaries over concrete values.

This defines the *semantics* of the map/reduce/join operators exactly as
section 2.1 of the paper specifies them:

* ``map``    applies λm to each element of a multiset and unions the
  emitted key-value pairs;
* ``reduce`` groups pairs by key (shuffle) and folds each key-group's
  values with λr;
* ``join``   pairs up elements of two key-value multisets with equal keys.

The bounded model checker compares these semantics against the sequential
interpreter's results, and the simulated engine executes the same
semantics with cost accounting.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from ..errors import IRError
from .nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    Emit,
    IRExpr,
    JoinStage,
    MapLambda,
    MapStage,
    OutputBinding,
    Pipeline,
    Proj,
    ReduceLambda,
    ReduceStage,
    Summary,
    TupleExpr,
    UnOp,
    Var,
)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _java_div(a: Any, b: Any) -> Any:
    if _is_int(a) and _is_int(b):
        if b == 0:
            raise IRError("integer division by zero")
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    if b == 0:
        raise IRError("float division by zero")
    return a / b


def _java_mod(a: Any, b: Any) -> Any:
    if _is_int(a) and _is_int(b):
        if b == 0:
            raise IRError("integer remainder by zero")
        return a - _java_div(a, b) * b
    if b == 0:
        return float("nan")  # Java: x % 0.0 is NaN
    return math.fmod(a, b)


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _java_div,
    "%": _java_mod,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}

_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": lambda x: abs(x),
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "pow": lambda a, b: float(a) ** float(b),
    "exp": lambda x: math.exp(x),
    "log": lambda x: (
        math.log(x) if x > 0 else (float("-inf") if x == 0 else float("nan"))
    ),
    "floor": lambda x: float(math.floor(x)),
    "ceil": lambda x: float(math.ceil(x)),
    "round": lambda x: int(math.floor(x + 0.5)),
    "date_before": lambda a, b: a.get("epoch") < b.get("epoch"),
    "date_after": lambda a, b: a.get("epoch") > b.get("epoch"),
    "str_contains": lambda s, sub: sub in s,
    "str_lower": lambda s: s.lower(),
    "str_len": lambda s: len(s),
    "str_starts": lambda s, p: s.startswith(p),
    "str_concat": lambda a, b: str(a) + str(b),
    "to_double": lambda x: float(x),
    "to_int": lambda x: int(x),
    "sq": lambda x: x * x,
    # Read-only access into a *broadcast* container input (array or map):
    # lets summaries express e.g. rank[src] / outdeg[src] lookups.
    "lookup": lambda container, key: container[key],
}


def apply_function(name: str, args: list[Any]) -> Any:
    """Apply a modelled library function by name."""
    if name not in _FUNCTIONS:
        raise IRError(f"unmodelled IR function {name!r}")
    return _FUNCTIONS[name](*args)


def eval_expr(expr: IRExpr, env: dict[str, Any]) -> Any:
    """Evaluate an IR expression in a variable environment."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise IRError(f"unbound IR variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, BinOp):
        if expr.op == "&&":
            return bool(eval_expr(expr.left, env)) and bool(eval_expr(expr.right, env))
        if expr.op == "||":
            return bool(eval_expr(expr.left, env)) or bool(eval_expr(expr.right, env))
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if expr.op not in _BINOPS:
            raise IRError(f"unknown IR operator {expr.op!r}")
        try:
            return _BINOPS[expr.op](left, right)
        except TypeError as exc:
            raise IRError(f"type error in {expr}: {exc}") from exc
    if isinstance(expr, UnOp):
        value = eval_expr(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return not value
        raise IRError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Cond):
        if eval_expr(expr.cond, env):
            return eval_expr(expr.then, env)
        return eval_expr(expr.other, env)
    if isinstance(expr, TupleExpr):
        return tuple(eval_expr(item, env) for item in expr.items)
    if isinstance(expr, Proj):
        base = eval_expr(expr.base, env)
        if not isinstance(base, tuple):
            raise IRError(f"projection on non-tuple in {expr}")
        if expr.index >= len(base):
            raise IRError(f"projection index {expr.index} out of range")
        return base[expr.index]
    if isinstance(expr, CallFn):
        args = [eval_expr(arg, env) for arg in expr.args]
        return apply_function(expr.name, args)
    raise IRError(f"unknown IR expression {type(expr).__name__}")


# ----------------------------------------------------------------------
# Operator semantics (section 2.1)


def run_map(
    elements: list[dict[str, Any]],
    lam: MapLambda,
    globals_env: dict[str, Any],
) -> list[tuple[Any, Any]]:
    """map(mset, λm): apply λm to each element, union emitted pairs."""
    pairs: list[tuple[Any, Any]] = []
    for element in elements:
        env = {**globals_env, **element}
        for emit in lam.emits:
            if emit.cond is not None and not eval_expr(emit.cond, env):
                continue
            key = eval_expr(emit.key, env)
            value = eval_expr(emit.value, env)
            pairs.append((key, value))
    return pairs


def run_map_pairs(
    pairs: list[tuple[Any, Any]],
    lam: MapLambda,
    globals_env: dict[str, Any],
) -> list[tuple[Any, Any]]:
    """A map stage applied to key-value pairs (binds λm params to k, v)."""
    k_name, v_name = lam.params[0], lam.params[1] if len(lam.params) > 1 else "v"
    out: list[tuple[Any, Any]] = []
    for key, value in pairs:
        env = {**globals_env, k_name: key, v_name: value}
        for emit in lam.emits:
            if emit.cond is not None and not eval_expr(emit.cond, env):
                continue
            out.append((eval_expr(emit.key, env), eval_expr(emit.value, env)))
    return out


def run_reduce(
    pairs: list[tuple[Any, Any]],
    lam: ReduceLambda,
    globals_env: dict[str, Any],
) -> list[tuple[Any, Any]]:
    """reduce(mset, λr): group by key, fold each group's values with λr."""
    groups: dict[Any, Any] = {}
    order: list[Any] = []
    v1, v2 = lam.params
    for key, value in pairs:
        if key in groups:
            env = {**globals_env, v1: groups[key], v2: value}
            groups[key] = eval_expr(lam.body, env)
        else:
            groups[key] = value
            order.append(key)
    return [(key, groups[key]) for key in order]


def run_join(
    left: list[tuple[Any, Any]],
    right: list[tuple[Any, Any]],
) -> list[tuple[Any, Any]]:
    """join: all pairs of elements with matching keys → (k, (v1, v2))."""
    index: dict[Any, list[Any]] = {}
    for key, value in right:
        index.setdefault(key, []).append(value)
    output: list[tuple[Any, Any]] = []
    for key, value in left:
        for other in index.get(key, ()):
            output.append((key, (value, other)))
    return output


# ----------------------------------------------------------------------
# Pipeline and summary evaluation


def run_pipeline(
    pipeline: Pipeline,
    datasets: dict[str, list[dict[str, Any]]],
    globals_env: dict[str, Any],
) -> list[tuple[Any, Any]]:
    """Execute a pipeline over materialized datasets, returning pairs."""
    if pipeline.source not in datasets:
        raise IRError(f"unknown dataset {pipeline.source!r}")
    current: Any = datasets[pipeline.source]
    is_pairs = False
    for stage in pipeline.stages:
        if isinstance(stage, MapStage):
            if is_pairs:
                current = run_map_pairs(current, stage.lam, globals_env)
            else:
                current = run_map(current, stage.lam, globals_env)
                is_pairs = True
        elif isinstance(stage, ReduceStage):
            if not is_pairs:
                raise IRError("reduce applied before any map stage")
            current = run_reduce(current, stage.lam, globals_env)
        elif isinstance(stage, JoinStage):
            if not is_pairs:
                raise IRError("join applied before any map stage")
            right = run_pipeline(stage.right, datasets, globals_env)
            current = run_join(current, right)
        else:
            raise IRError(f"unknown stage {type(stage).__name__}")
    if not is_pairs:
        raise IRError("pipeline has no map stage")
    return current


def evaluate_summary(
    summary: Summary,
    datasets: dict[str, list[dict[str, Any]]],
    globals_env: dict[str, Any],
    output_sizes: Optional[dict[str, int]] = None,
) -> dict[str, Any]:
    """Evaluate a summary, returning the value of each output variable.

    ``output_sizes`` gives the length of array-valued outputs (needed to
    build a dense array from sparse key-value results).
    """
    pairs = run_pipeline(summary.pipeline, datasets, globals_env)
    result_map: dict[Any, Any] = {}
    for key, value in pairs:
        result_map[key] = value

    outputs: dict[str, Any] = {}
    for binding in summary.outputs:
        if binding.kind == "keyed":
            key = eval_expr(binding.key, globals_env) if binding.key is not None else binding.var
            if key in result_map:
                value = result_map[key]
                if binding.project is not None:
                    if not isinstance(value, tuple) or binding.project >= len(value):
                        raise IRError("output projection on non-tuple result")
                    value = value[binding.project]
            else:
                value = binding.default
            outputs[binding.var] = value
        elif binding.kind == "whole":
            outputs[binding.var] = _build_container(
                binding, result_map, pairs, output_sizes or {}
            )
        else:
            raise IRError(f"unknown output binding kind {binding.kind!r}")
    return outputs


def _build_container(
    binding: OutputBinding,
    result_map: dict[Any, Any],
    pairs: list[tuple[Any, Any]],
    output_sizes: dict[str, int],
) -> Any:
    if binding.container == "map":
        return dict(result_map)
    if binding.container == "set":
        return set(result_map.keys())
    if binding.container == "bag":
        # List outputs built by appends: values in pipeline order.
        return [value for _, value in pairs]
    if binding.container in ("array", "list"):
        size = output_sizes.get(binding.var)
        if size is None:
            size = (max(result_map.keys()) + 1) if result_map else 0
        default = binding.default
        return [result_map.get(i, default) for i in range(size)]
    raise IRError(f"unknown container {binding.container!r}")


def make_emit(key: IRExpr, value: IRExpr, cond: Optional[IRExpr] = None) -> Emit:
    """Convenience Emit constructor (mirrors the paper's emit syntax)."""
    return Emit(key=key, value=value, cond=cond)

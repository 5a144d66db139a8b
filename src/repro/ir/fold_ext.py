"""Fold-IR extension (paper section 7.5, system extensibility).

The paper demonstrates extensibility by implementing the fold construct of
prior work [22] inside Casper's IR with a handful of lines.  We mirror
that: a ``FoldStage`` folds a dataset into a single accumulator value with
an initial value and a binary step function — the sequential analogue of
reduce without keys.

Summaries in Fold-IR can be rewritten into the core map/reduce IR (both
are conceptual subsets of Weld, as the paper notes), which is how
:func:`fold_to_mapreduce` lowers them for code generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import IRError
from .eval import eval_expr
from .nodes import (
    Const,
    Emit,
    IRExpr,
    MapLambda,
    MapStage,
    OutputBinding,
    Pipeline,
    ReduceLambda,
    ReduceStage,
    Summary,
)


@dataclass(frozen=True)
class FoldStage:
    """fold(init, λ(acc, element) → acc') over a dataset."""

    init: IRExpr
    acc_param: str
    body: IRExpr  # may reference acc_param and the element atoms


@dataclass(frozen=True)
class FoldSummary:
    """``v = fold(data, init, λ)`` — a Fold-IR program summary."""

    source: str
    stage: FoldStage
    output_var: str


def evaluate_fold(
    fold: FoldSummary,
    datasets: dict[str, list[dict[str, Any]]],
    globals_env: dict[str, Any],
) -> Any:
    """Reference semantics: sequential left fold over the dataset."""
    if fold.source not in datasets:
        raise IRError(f"unknown dataset {fold.source!r}")
    acc = eval_expr(fold.stage.init, globals_env)
    for element in datasets[fold.source]:
        env = {**globals_env, **element, fold.stage.acc_param: acc}
        acc = eval_expr(fold.stage.body, env)
    return acc


def fold_to_mapreduce(fold: FoldSummary, value_expr: IRExpr, combine: IRExpr) -> Summary:
    """Lower a fold summary to the core IR when a homomorphic split exists.

    ``value_expr`` maps one element to a partial value, and ``combine`` (in
    terms of v1/v2) merges partials.  This mirrors translating Fold-IR
    summaries to Weld/MapReduce via simple rewrite rules (section 7.5).
    """
    key = Const(fold.output_var, "String")
    map_stage = MapStage(MapLambda(("e",), (Emit(key=key, value=value_expr),)))
    reduce_stage = ReduceStage(ReduceLambda(combine))
    binding = OutputBinding(
        var=fold.output_var,
        kind="keyed",
        key=key,
        default=None,
    )
    return Summary(Pipeline(fold.source, (map_stage, reduce_stage)), (binding,))

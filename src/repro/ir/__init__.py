"""Casper's high-level IR for program summaries (paper section 3.1).

The IR models the ``map``, ``reduce`` and ``join`` primitives plus a small
expression language (conditionals, tuples, library calls).  Summaries are
immutable/hashable so the search can block failed candidates.
"""

from . import builder
from .eval import (
    apply_function,
    eval_expr,
    evaluate_summary,
    run_join,
    run_map,
    run_map_pairs,
    run_pipeline,
    run_reduce,
)
from .fold_ext import FoldStage, FoldSummary, evaluate_fold, fold_to_mapreduce
from .nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    Emit,
    IRExpr,
    JoinStage,
    is_join_summary,
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
    UnOp,
    Var,
    expr_size,
    expr_vars,
    walk_expr,
)
from .pretty import format_pipeline, format_summary

__all__ = [
    "BinOp",
    "CallFn",
    "Cond",
    "Const",
    "Emit",
    "FoldStage",
    "FoldSummary",
    "IRExpr",
    "JoinStage",
    "is_join_summary",
    "MapLambda",
    "MapStage",
    "OutputBinding",
    "Pipeline",
    "Proj",
    "ReduceLambda",
    "ReduceStage",
    "Stage",
    "Summary",
    "TupleExpr",
    "UnOp",
    "Var",
    "apply_function",
    "builder",
    "eval_expr",
    "evaluate_fold",
    "evaluate_summary",
    "expr_size",
    "expr_vars",
    "fold_to_mapreduce",
    "format_pipeline",
    "format_summary",
    "run_join",
    "run_map",
    "run_map_pairs",
    "run_pipeline",
    "run_reduce",
    "walk_expr",
]

"""Tier-1 proofs for loop nests: a 2-D array loop and a join nest.

Both decompose the nest structurally and hand the pointwise part to the
fold obligations (:mod:`repro.verification.obligations`):

* :func:`prove_nested_loop` — an outer loop whose body is exactly the
  inner loop is a flat fold over ``(i, j, v)``; otherwise the inner fold
  must match stage 1's emits under λr per group, the per-row initializer
  must be λr's identity, and the suffix must be the finalizer stage.
* :func:`prove_join` — the multiset half is structural, the pointwise
  half is :func:`~repro.verification.obligations.prove_fold` on the
  innermost body.
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import (
    Emit,
    IRExpr,
    JoinStage,
    MapStage,
    Proj,
    ReduceLambda,
    ReduceStage,
    Summary,
    TupleExpr,
    Var,
)
from ..lang import ast_nodes as ast
from ..lang.analysis.fragments import FragmentAnalysis
from .algebra import normalize, substitute, term_key
from .cases import case_equal, terms_equal_cases
from .loops import lang_const_term, loop_body, symexec_body
from .obligations import check_initiation, merge_term, prove_fold, reduce_lambda

Proof = tuple[bool, str, list[str]]


def _same_term(left: IRExpr, right: IRExpr) -> bool:
    return term_key(normalize(left)) == term_key(normalize(right))


def prove_nested_loop(
    analysis: FragmentAnalysis, summary: Summary, shape: tuple[str, ...]
) -> Proof:
    view = analysis.view
    loop = analysis.fragment.loop
    if not isinstance(loop, ast.For):
        return False, "nested proof requires counter loops", []
    outer_body = loop_body(loop)

    # Structure: [inits..., inner-for, suffix...]
    inner_index = next(
        (i for i, s in enumerate(outer_body) if isinstance(s, ast.For)), None
    )
    if inner_index is None:
        return False, "no inner loop found", []
    inits = outer_body[:inner_index]
    inner_body = loop_body(outer_body[inner_index])
    suffix = outer_body[inner_index + 1 :]

    # Flattened case: the outer body is exactly the inner loop — treat
    # the element stream (i, j, v) as a flat fold.
    if not inits and not suffix:
        if shape == ("m", "r", "m"):
            return False, "finalizer map on flattened loop unsupported", []
        return prove_fold(
            analysis, summary, inner_body, "inductive proof complete (flattened)"
        )

    if shape == ("m",):
        return False, "map-only summary cannot express nested accumulation", []

    map_stage = summary.pipeline.stages[0]
    assert isinstance(map_stage, MapStage)
    reduce_lam = reduce_lambda(summary)
    assert reduce_lam is not None

    container_outputs = [b for b in summary.outputs if b.kind == "whole"]
    if len(container_outputs) != 1 or len(summary.outputs) != 1:
        return False, "nested proof supports one container output", []
    out_binding = container_outputs[0]
    ok, reason = check_initiation(analysis, summary)
    if not ok:
        return False, reason, []

    # Per-group accumulators initialized in the outer body.
    acc_names = [s.name for s in inits if isinstance(s, ast.VarDecl)]
    if len(acc_names) != 1:
        return False, "nested proof expects one per-row accumulator", []
    acc = acc_names[0]
    init_stmt = inits[0]
    assert isinstance(init_stmt, ast.VarDecl)
    if init_stmt.init is None:
        return False, "accumulator lacks an initializer", []

    # (a) Inner fold matches the stage-1 emits + λr for a fixed group i.
    if len(map_stage.lam.emits) != 1:
        return False, "nested proof expects a single emit", []
    emit = map_stage.lam.emits[0]
    group_key = Var(view.index_vars[0], "int")
    if not _same_term(emit.key, group_key):
        return False, "stage-1 emit key is not the outer loop index", []

    acc_sym = Var(f"__acc_{acc}", "double")
    paths = symexec_body(analysis, inner_body, {acc: acc_sym}, set())
    merged = merge_term(acc_sym, [emit], reduce_lam)
    ok, reason = case_equal([(p, p.scalars.get(acc, acc_sym)) for p in paths], merged)
    if not ok:
        return False, f"inner fold mismatch: {reason}", []

    # Identity for the inner init value: λr(init, v) ≡ v.
    init_term = lang_const_term(init_stmt.init)
    if init_term is None:
        return False, "accumulator initializer is not a constant", []
    v = Var("ν", "double")
    merged_first = substitute(
        reduce_lam.body,
        {reduce_lam.params[0]: init_term, reduce_lam.params[1]: v},
    )
    if not terms_equal_cases(merged_first, v):
        return False, "inner reduce identity fails for initializer", []

    # (b) The suffix writes exactly out[i] = fin(acc); match finalizer.
    if len(suffix) != 1:
        return False, "nested proof expects a single finalizer statement", []
    fin_paths = symexec_body(analysis, suffix, {acc: acc_sym}, {out_binding.var})
    if len(fin_paths) != 1:
        return False, "conditional finalizers unsupported", []
    writes = fin_paths[0].writes.get(out_binding.var, [])
    if len(writes) != 1:
        return False, "finalizer must write exactly one cell", []
    write_key, write_value = writes[0]
    if not _same_term(write_key, group_key):
        return False, "finalizer writes a different cell than the group key", []

    if shape == ("m", "r", "m"):
        final_stage = summary.pipeline.stages[2]
        assert isinstance(final_stage, MapStage)
        if len(final_stage.lam.emits) != 1:
            return False, "finalizer stage must have one emit", []
        fin_emit = final_stage.lam.emits[0]
        if fin_emit.cond is not None:
            return False, "guarded finalizer emits unsupported", []
        k_name, v_name = final_stage.lam.params[0], final_stage.lam.params[1]
        key_term = substitute(fin_emit.key, {k_name: group_key, v_name: acc_sym})
        value_term = substitute(fin_emit.value, {k_name: group_key, v_name: acc_sym})
        if not _same_term(key_term, group_key):
            return False, "finalizer stage does not preserve the key", []
        if not terms_equal_cases(value_term, write_value):
            return False, "finalizer value mismatch", []
    elif not terms_equal_cases(write_value, acc_sym):
        # ("m", "r") — the suffix must be the identity finalizer.
        return False, "missing finalizer stage for non-identity suffix", []

    return (
        True,
        "inductive proof complete (nested)",
        ["initiation", "identity", "step", "finalizer"],
    )


def prove_join(
    analysis: FragmentAnalysis, summary: Summary, commutative: bool, associative: bool
) -> Proof:
    """Structural proof tier for join pipelines (scalar outputs).

    The argument has two halves:

    * **Multiset** — structurally, the pre-join map stages are pure
      keyed restructurings (one unguarded whole-element-tuple emit
      per element), each join's key pair is exactly one of the
      source program's equi-predicates, and every re-key stage
      passes the value through unchanged.  The relational semantics
      of ``join`` (section 2.1) then delivers the post-join map
      exactly one ``(a, b[, c])`` binding per tuple the original
      nest ran its innermost body for — the same multiset the loop
      nest visits, possibly in a different order.

    * **Pointwise** — for one matched tuple, the fold obligations of
      :func:`prove_fold` on the innermost body (fields rewritten to
      relation atoms, residual guards included) against the post-join
      emits.  Order-independence of the fold is discharged by requiring
      λr commutative + associative (``commutative`` / ``associative``,
      as :func:`check_reduce_properties` found them), so multiset
      equality suffices.

    Container outputs and shapes outside the canonical skeleton fall
    back to Tier-2 extended-domain refutation.
    """
    from ..lang.analysis.joins import rewrite_side_fields
    from ..synthesis.joins import JoinCandidateEnumerator

    join = analysis.join
    if join is None:
        return False, "join pipeline without join analysis", []
    stages = summary.pipeline.stages
    if summary.pipeline.source != join.base.source:
        return False, "pipeline does not start at the base relation", []

    def relation_map_key(stage, side) -> Optional[str]:
        """Key field when ``stage`` is a keyed whole-element emit."""
        if not isinstance(stage, MapStage) or len(stage.lam.emits) != 1:
            return None
        emit = stage.lam.emits[0]
        if emit.cond is not None:
            return None
        if not _same_term(emit.value, TupleExpr(tuple(Var(f.name) for f in side.fields))):
            return None
        if isinstance(emit.key, Var) and emit.key.name in side.field_names:
            return emit.key.name
        return None

    base_key = relation_map_key(stages[0], join.base)
    if base_key is None:
        return False, "stage 1 is not a keyed whole-element emit", []

    position = {join.base.source: 0}
    key_owner, key_field = join.base.source, base_key
    order: list = []  # analysis levels in summary join order
    depth = 0
    index = 1
    while index < len(stages):
        stage = stages[index]
        if isinstance(stage, JoinStage):
            source = stage.right.source
            try:
                level = join.level_for(source)
            except KeyError:
                return False, f"unknown join relation {source!r}", []
            if source in position:
                return False, f"relation {source!r} joined twice", []
            if len(stage.right.stages) != 1:
                return False, "right pipeline must be a single map", []
            right_key = relation_map_key(stage.right.stages[0], level.side)
            if right_key is None:
                return False, "right map is not a keyed whole-element emit", []
            if (key_owner, key_field, right_key) != (
                level.left_owner,
                level.left_key,
                level.right_key,
            ):
                return False, "join keys do not match the source equi-predicate", []
            depth += 1
            position[source] = depth
            order.append(level)
            index += 1
            continue
        if not isinstance(stage, MapStage):
            break
        if not any(isinstance(s, JoinStage) for s in stages[index + 1 :]):
            break  # the post-join map; handled after the loop
        # A re-key stage: value passes through, key is a field path.
        if len(stage.lam.emits) != 1 or stage.lam.emits[0].cond is not None:
            return False, "re-key stage must be a single unguarded emit", []
        emit = stage.lam.emits[0]
        if term_key(normalize(emit.value)) != term_key(Var("v")):
            return False, "re-key stage must pass the value through", []
        rekey = None
        for side in join.sides:
            if side.source not in position:
                continue
            tuple_path = JoinCandidateEnumerator._tuple_path(position[side.source], depth)
            for f_index, fld in enumerate(side.fields):
                if _same_term(emit.key, Proj(tuple_path, f_index)):
                    rekey = (side.source, fld.name)
                    break
            if rekey is not None:
                break
        if rekey is None:
            return False, "re-key expression is not a joined field path", []
        key_owner, key_field = rekey
        index += 1

    if len(order) != len(join.levels):
        return False, "summary does not join every relation", []
    if index >= len(stages) or not isinstance(stages[index], MapStage):
        return False, "missing post-join map stage", []
    post = stages[index]
    reduce_lam: Optional[ReduceLambda] = None
    if index + 1 < len(stages):
        tail = stages[index + 1]
        if index + 2 != len(stages) or not isinstance(tail, ReduceStage):
            return False, "unsupported join pipeline tail", []
        reduce_lam = tail.lam

    if any(b.kind != "keyed" or b.project is not None for b in summary.outputs):
        return False, "structural join proof covers scalar outputs only", []
    if reduce_lam is None:
        return False, "scalar join outputs require a reduce stage", []
    if not (commutative and associative):
        return (
            False,
            "join fold order is data-dependent; λr must be commutative "
            "and associative",
            [],
        )
    binding_keys = {
        term_key(normalize(b.key)) for b in summary.outputs if b.key is not None
    }
    for emit in post.lam.emits:
        if term_key(normalize(emit.key)) not in binding_keys:
            return False, "post-join emit feeds no output binding", []

    # Translate the post-join emits back into relation-field space:
    # the joined value is literally the nested tuple of field tuples.
    value_term: IRExpr = TupleExpr(tuple(Var(f.name) for f in join.base.fields))
    for level in order:
        side_tuple = TupleExpr(tuple(Var(f.name) for f in level.side.fields))
        value_term = TupleExpr((value_term, side_tuple))
    mapping = {"v": value_term, "k": Var(key_field)}
    emits = [
        Emit(
            key=emit.key,
            value=normalize(substitute(emit.value, mapping)),
            cond=(
                normalize(substitute(emit.cond, mapping))
                if emit.cond is not None
                else None
            ),
        )
        for emit in post.lam.emits
    ]
    body = [rewrite_side_fields(s, join) for s in join.guarded_body]
    return prove_fold(
        analysis,
        summary,
        body,
        "inductive join proof complete",
        emits=emits,
        step="join-step",
        premises=("multiset",),
    )

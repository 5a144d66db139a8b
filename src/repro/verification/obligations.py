"""The Hoare obligations of a fold and the one sequence that runs them.

For a summary over a sequential fold, the verification conditions of
the paper's Fig. 4 reduce to three algebraic obligations:

* *initiation* — each scalar output's default equals its prelude value;
* *identity*   — ``λr(default, v) ≡ v``, so the first merged value equals
  the first folded value (only when the summary reduces);
* *step*       — one execution of the loop body from any state equals
  merging one more element's emits into the summary
  (``MR(xs ++ [e]) == step(MR(xs), e)``), per scalar output, per tuple
  of projected outputs, and per container cell / bag / set.

:func:`prove_fold` runs them in that order on a loop body; the flat
loop, the flattened nested loop and the join nest's pointwise half all
go through it.  Each check is a pure function of its arguments and
answers ``(ok, reason)``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..ir.nodes import (
    Cond,
    Const,
    Emit,
    IRExpr,
    OutputBinding,
    Proj,
    ReduceLambda,
    ReduceStage,
    Summary,
    TupleExpr,
    Var,
)
from ..lang import ast_nodes as ast
from ..lang.analysis.fragments import FragmentAnalysis
from .algebra import Normalizer, normalize, substitute, term_key
from .cases import (
    MAX_CASE_ATOMS,
    case_atoms,
    case_equal,
    feasible_cases,
    path_active,
    terms_equal_cases,
)
from .loops import const_term, symexec_body
from .symexec import CellRef, SymState

Verdict = tuple[bool, str]


def reduce_lambda(summary: Summary) -> Optional[ReduceLambda]:
    """λr of the summary's first reduce stage, if it has one."""
    for stage in summary.pipeline.stages:
        if isinstance(stage, ReduceStage):
            return stage.lam
    return None


def prove_fold(
    analysis: FragmentAnalysis,
    summary: Summary,
    body: list[ast.Stmt],
    label: str,
    *,
    emits: Optional[list[Emit]] = None,
    step: str = "step",
    premises: tuple[str, ...] = (),
) -> tuple[bool, str, list[str]]:
    """Initiation → identity → step on ``body``, one element of a fold.

    ``emits`` are the element's emits (default: the first map stage's);
    ``step`` names the step obligation and its mismatch reason, and
    ``premises`` are obligations the caller discharged before (listed
    ahead of the step).  A proof lists exactly the obligations checked;
    ``label`` is its reason.
    """
    if emits is None:
        emits = list(summary.pipeline.stages[0].lam.emits)
    reduce_lam = reduce_lambda(summary)
    scalar_outputs = [b for b in summary.outputs if b.kind == "keyed"]
    container_outputs = [b for b in summary.outputs if b.kind == "whole"]
    acc_bindings = {b.var: Var(f"__acc_{b.var}", "double") for b in scalar_outputs}
    paths = symexec_body(
        analysis, body, acc_bindings, {b.var for b in container_outputs}
    )

    ok, reason = check_initiation(analysis, summary)
    if not ok:
        return False, reason, []
    obligations = ["initiation"]
    if reduce_lam is not None:
        for binding in summary.outputs:
            ok, reason = check_identity(reduce_lam, binding)
            if not ok:
                return False, reason, []
        obligations.append("identity")

    mismatch = step.replace("-", " ") + " mismatch"
    for binding in scalar_outputs:
        ok, reason = check_scalar_step(
            binding, scalar_outputs, emits, reduce_lam, paths, acc_bindings, mismatch
        )
        if not ok:
            return False, reason, []
    for binding in container_outputs:
        ok, reason = check_container_step(binding, emits, reduce_lam, paths)
        if not ok:
            return False, reason, []
    return True, label, obligations + list(premises) + [step]


# -- initiation and identity ---------------------------------------------


def check_initiation(analysis: FragmentAnalysis, summary: Summary) -> Verdict:
    """Binding defaults must equal the prelude's output values."""
    prelude = analysis.prelude_constants
    for binding in summary.outputs:
        if binding.kind != "keyed":
            continue  # container defaults are checked by the step
        expected = prelude.get(binding.var)
        if expected is None and binding.var not in prelude:
            return False, f"no prelude value for output {binding.var!r}"
        if not _values_match(binding.default, expected):
            return (
                False,
                f"initiation fails: default {binding.default!r} != prelude "
                f"{expected!r} for {binding.var!r}",
            )
    return True, ""


def check_identity(reduce_lam: ReduceLambda, binding: OutputBinding) -> Verdict:
    """λr(default, v) ≡ v so the first merge equals the first fold."""
    default = binding.default
    if binding.kind != "whole" and default is None:
        return True, ""  # map-typed default handled by presence split
    if binding.project is not None:
        return True, ""  # tuple accumulators: checked by the tuple step
    if _is_identity(reduce_lam, const_term(default if default is not None else 0)):
        return True, ""
    return False, f"reduce identity fails for default {default!r}"


def _is_identity(reduce_lam: ReduceLambda, term: IRExpr) -> bool:
    v = Var("ν", "double")
    first = substitute(reduce_lam.body, {reduce_lam.params[0]: term, reduce_lam.params[1]: v})
    return terms_equal_cases(first, v)


# -- the step ------------------------------------------------------------


def matching_emits(binding: OutputBinding, emits: list[Emit]) -> list[Emit]:
    """The emits that feed this output binding."""
    if binding.kind == "whole":
        return list(emits)
    if binding.key is None:
        return []
    key = term_key(normalize(binding.key))
    return [emit for emit in emits if term_key(normalize(emit.key)) == key]


def merge_term(
    old: IRExpr, emits: list[Emit], reduce_lam: Optional[ReduceLambda]
) -> IRExpr:
    """The summary-side term: merge one element's emits into ``old``."""
    current = old
    for emit in emits:
        if reduce_lam is None:
            merged = emit.value
        else:
            merged = substitute(
                reduce_lam.body,
                {reduce_lam.params[0]: current, reduce_lam.params[1]: emit.value},
            )
        current = Cond(emit.cond, merged, current) if emit.cond is not None else merged
    return current


def check_scalar_step(
    binding: OutputBinding,
    all_scalar: list[OutputBinding],
    emits: list[Emit],
    reduce_lam: Optional[ReduceLambda],
    paths: list[SymState],
    acc_bindings: dict[str, IRExpr],
    mismatch: str = "step mismatch",
) -> Verdict:
    emits = matching_emits(binding, emits)
    if not emits:
        return False, f"no emit feeds output {binding.var!r}"
    if binding.project is not None:
        return check_tuple_step(binding, all_scalar, emits, reduce_lam, paths, acc_bindings)
    if reduce_lam is None:
        return False, "scalar output requires a reduce stage"
    acc = acc_bindings[binding.var]
    merged = merge_term(acc, emits, reduce_lam)
    pairs = [(p, p.scalars.get(binding.var, acc)) for p in paths]
    ok, reason = case_equal(pairs, merged)
    if not ok:
        return False, f"{mismatch} for {binding.var!r}: {reason}"
    return True, ""


def check_tuple_step(
    binding: OutputBinding,
    all_scalar: list[OutputBinding],
    emits: list[Emit],
    reduce_lam: Optional[ReduceLambda],
    paths: list[SymState],
    acc_bindings: dict[str, IRExpr],
) -> Verdict:
    """Several scalar outputs sharing one tuple-valued reduction."""
    if reduce_lam is None:
        return False, "tuple outputs require a reduce stage"
    group = sorted(
        (b for b in all_scalar if b.project is not None and _same_key(b, binding)),
        key=lambda b: b.project,  # type: ignore[arg-type, return-value]
    )
    width = max(b.project for b in group) + 1  # type: ignore[operator, type-var]
    if len(group) != width:
        return False, "tuple projections do not cover the reduced tuple"
    acc_tuple = TupleExpr(tuple(acc_bindings[b.var] for b in group))
    merged = merge_term(acc_tuple, emits, reduce_lam)
    # Identity against the tuple of defaults.
    if not _is_identity(reduce_lam, TupleExpr(tuple(const_term(b.default) for b in group))):
        return False, "tuple reduce identity fails"
    for component, member in enumerate(group):
        pairs = [
            (p, p.scalars.get(member.var, acc_bindings[member.var])) for p in paths
        ]
        ok, reason = case_equal(pairs, Proj(merged, component))
        if not ok:
            return False, f"tuple step mismatch for {member.var!r}: {reason}"
    return True, ""


def check_container_step(
    binding: OutputBinding,
    emits: list[Emit],
    reduce_lam: Optional[ReduceLambda],
    paths: list[SymState],
) -> Verdict:
    """Each body path writes the one cell the element's emits hit, with
    the merged value, or writes nothing when the merge is a no-op."""
    emits = matching_emits(binding, emits)
    if not emits:
        return False, f"no emit feeds container {binding.var!r}"
    if binding.container in ("bag", "set"):
        return check_bag_or_set_step(binding, emits, paths)
    keys: dict[str, IRExpr] = {}
    for emit in emits:
        key = normalize(emit.key)
        keys[term_key(key)] = key
    if len(keys) != 1:
        return False, "could not derive container merge term"
    (key_term,) = keys.values()
    old = Var(CellRef(binding.var, normalize(key_term)).name, "double")
    merged = merge_term(old, emits, reduce_lam)
    for path in paths:
        writes = path.writes.get(binding.var, [])
        if not writes:
            # No write on this path ⇒ the merge must be a no-op.
            ok, reason = case_equal([(path, old)], merged)
            if not ok:
                return False, f"container no-op mismatch: {reason}"
            continue
        # Later writes shadow earlier ones in symexec; take the last.
        write_key, write_value = writes[-1]
        if term_key(normalize(write_key)) != term_key(normalize(key_term)):
            return (
                False,
                f"cell key mismatch: wrote {write_key}, emits {key_term}",
            )
        ok, reason = case_equal([(path, write_value)], merged)
        if not ok:
            return False, f"container step mismatch: {reason}"
    return True, ""


def check_bag_or_set_step(
    binding: OutputBinding, emits: list[Emit], paths: list[SymState]
) -> Verdict:
    """Bag/set outputs: per path, appends must match guarded emits.

    For bags the emitted *value* is appended; for sets the *key* is the
    inserted element.  Every feasible case must either (guard true)
    append exactly the emitted term or (guard false) append nothing.
    """
    if len(emits) != 1:
        return False, "bag/set outputs support a single emit"
    emit = emits[0]
    emitted = emit.key if binding.container == "set" else emit.value

    terms = [emitted] if emit.cond is None else [emitted, emit.cond]
    atoms = case_atoms(terms, paths)
    if len(atoms) > MAX_CASE_ATOMS:
        return False, "too many atoms for bag/set case enumeration"

    matched_any = False
    for assignment in feasible_cases(atoms):
        normalizer = Normalizer(assignment)
        if emit.cond is None:
            guard_holds = True
        else:
            guard_value = normalizer.normalize(emit.cond)
            if not isinstance(guard_value, Const):
                return False, "emit guard undecided by case analysis"
            guard_holds = bool(guard_value.value)
        for state in paths:
            if not path_active(state, normalizer):
                continue
            matched_any = True
            adds = state.appends.get(binding.var, [])
            if not guard_holds:
                if adds:
                    return False, "guard fails but path appends"
            elif len(adds) != 1:
                return False, "guard holds but path appends nothing"
            elif term_key(normalizer.normalize(adds[0])) != term_key(
                normalizer.normalize(emitted)
            ):
                return False, "appended element differs from emit"
    if not matched_any and paths:
        return False, "no body path could be activated by case analysis"
    return True, ""


# -- helpers -------------------------------------------------------------


def _values_match(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def _same_key(a: OutputBinding, b: OutputBinding) -> bool:
    if a.key is None or b.key is None:
        return False
    return term_key(normalize(a.key)) == term_key(normalize(b.key))

"""Full verification of program summaries: the theorem-prover substitute.

The paper sends candidate summaries (plus generated proof scripts) to
Dafny for verification over the unbounded domain (section 3.4).  This
module plays that role with a two-tier strategy:

**Tier 1 — inductive structural proof.**  For the summary shapes the IR
produces (map / map→reduce / map→reduce→map over a sequential fold), the
Hoare VCs of Fig. 4 reduce to three algebraic obligations:

* *initiation* — the output's prelude value equals the binding default;
* *identity*   — ``λr(default, v) ≡ v``, so the first merged value equals
  the first folded value;
* *step*       — one execution of the loop body starting from any state
  satisfying the prefix invariant equals merging one more element into the
  summary (``MR(xs ++ [e]) == step(MR(xs), e)``).

The step identity is checked by symbolic execution of the loop body and
case enumeration over the atomic boolean conditions, with terms compared
by AC normalization (:mod:`repro.verification.algebra`).  A successful
Tier-1 run is a genuine inductive proof for the modelled semantics
(arbitrary-precision integers; Java overflow not modelled, as in Dafny's
default int theory).

**Tier 2 — extended-domain refutation.**  When Tier 1 cannot apply (shape
not recognized, path explosion), the candidate is tested on hundreds of
states drawn from a much larger domain than the synthesizer's bounded
check (sizes up to 8, |int| up to 64).  A counter-example refutes the
candidate exactly as a Dafny rejection would; surviving candidates are
reported ``unknown`` and accepted only when the caller opts in
(``accept_bounded_only``), with the status recorded.

Either way, candidates that exploit bounded-domain coincidences (the
paper's ``v`` vs ``min(4, v)`` example) are rejected and flow into the
Ω blocking set of the search algorithm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from ..diagnostics.diagnostic import Diagnostic, diagnostic_from_data, make
from ..errors import SymbolicUnsupported, VerificationError
from ..lang import ast_nodes as ast
from ..lang.analysis.fragments import FragmentAnalysis
from ..ir.nodes import (
    Cond,
    Const,
    Emit,
    IRExpr,
    JoinStage,
    MapStage,
    OutputBinding,
    Proj,
    ReduceLambda,
    ReduceStage,
    Summary,
    TupleExpr,
    Var,
)
from .algebra import (
    Normalizer,
    assignment_feasible,
    collect_atoms,
    normalize,
    substitute,
    term_key,
)
from .bounded import (
    BoundedCheckConfig,
    BoundedChecker,
    ProgramState,
)
from .symexec import SymbolicExecutor, SymState


@dataclass
class ProofResult:
    """Outcome of full verification."""

    status: str  # "proved" | "refuted" | "unknown"
    reason: str = ""
    counterexample: Optional[ProgramState] = None
    is_commutative: bool = False
    is_associative: bool = False
    obligations: list[str] = field(default_factory=list)
    #: Structured account of why Tier 1 did not apply (REP201/REP202);
    #: empty for proved results.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return self.status == "proved"


def proof_to_data(proof: ProofResult) -> dict:
    """Serialize a proof result to JSON-safe plain data.

    The counterexample (a concrete :class:`ProgramState`) is not carried:
    only *accepted* proofs enter the summary cache, and refuted results
    never do, so a serialized proof has no counterexample by construction.
    """
    data = {
        "status": proof.status,
        "reason": proof.reason,
        "is_commutative": proof.is_commutative,
        "is_associative": proof.is_associative,
        "obligations": list(proof.obligations),
    }
    if proof.diagnostics:
        data["diagnostics"] = [d.as_dict() for d in proof.diagnostics]
    return data


def proof_from_data(data: dict) -> ProofResult:
    """Rebuild a proof result from :func:`proof_to_data` output."""
    return ProofResult(
        status=data["status"],
        reason=data["reason"],
        is_commutative=data["is_commutative"],
        is_associative=data["is_associative"],
        obligations=list(data["obligations"]),
        # Pre-diagnostics cache entries have no "diagnostics" key.
        diagnostics=[
            diagnostic_from_data(item) for item in data.get("diagnostics", [])
        ],
    )


_MAX_CASE_ATOMS = 10


def _fresh_extended_config(seed: int, max_dataset_size: int = 8) -> BoundedCheckConfig:
    return BoundedCheckConfig(
        max_dataset_size=max_dataset_size,
        int_range=(-64, 64),
        float_values=(-37.5, -3.25, -1.0, 0.0, 0.1, 0.75, 1.0, 2.0, 9.5, 64.0),
        string_pool=("a", "b", "c", "d", "w0", "w1", "w2", "xyz"),
        date_range=(8000, 9200),
        seed=seed,
    )


def _extended_dataset_size(analysis: FragmentAnalysis) -> int:
    """Dataset sizes the extended domain must reach to kill size-coincident
    candidates (e.g. a guard ``i < 64`` harvested from an array bound is
    indistinguishable from ``true`` on 8-element datasets)."""
    size = 8
    for value, _jtype in analysis.scan.constants:
        if isinstance(value, int) and not isinstance(value, bool) and 0 < value <= 512:
            size = max(size, min(2 * value, 512))
    return size


def check_reduce_properties(lam: ReduceLambda) -> tuple[bool, bool]:
    """Algebraically check commutativity and associativity of λr."""
    v1, v2 = lam.params
    a, b, c = Var("α"), Var("β"), Var("γ")

    def apply(x: IRExpr, y: IRExpr) -> IRExpr:
        return substitute(lam.body, {v1: x, v2: y})

    commutative = _terms_equal_cases(apply(a, b), apply(b, a))
    associative = _terms_equal_cases(apply(apply(a, b), c), apply(a, apply(b, c)))
    return commutative, associative


def _terms_equal_cases(left: IRExpr, right: IRExpr) -> bool:
    """Term equality with case enumeration over boolean atoms."""
    atoms = collect_atoms(left) + collect_atoms(right)
    unique: dict[str, IRExpr] = {term_key(a): a for a in atoms}
    keys = sorted(unique)
    if len(keys) > _MAX_CASE_ATOMS:
        return False
    if not keys:
        return term_key(normalize(left)) == term_key(normalize(right))
    atom_list = [unique[k] for k in keys]
    for values in itertools.product((False, True), repeat=len(keys)):
        assignment = dict(zip(keys, values))
        if not assignment_feasible(atom_list, assignment):
            continue
        normalizer = Normalizer(assignment)
        if term_key(normalizer.normalize(left)) != term_key(normalizer.normalize(right)):
            return False
    return True


class FullVerifier:
    """Verifies candidate summaries over the unbounded domain."""

    def __init__(
        self,
        analysis: FragmentAnalysis,
        extended_states: int = 120,
        accept_bounded_only: bool = True,
        seed: int = 1729,
    ):
        self.analysis = analysis
        self.extended_states = extended_states
        self.accept_bounded_only = accept_bounded_only
        self.seed = seed

    # ------------------------------------------------------------------

    def verify(self, summary: Summary) -> ProofResult:
        """Run Tier-1 inductive proof, falling back to Tier-2 refutation."""
        reduce_lam = self._reduce_lambda(summary)
        commutative = associative = False
        if reduce_lam is not None:
            commutative, associative = check_reduce_properties(reduce_lam)

        diagnostics: list[Diagnostic] = []
        try:
            proved, reason, obligations = self._try_inductive(summary)
        except SymbolicUnsupported as exc:
            # Typed demotion: the symbolic executor already built the
            # structured REP201/REP202 diagnostic — carry it through.
            proved, reason, obligations = False, str(exc), []
            if isinstance(exc.diagnostic, Diagnostic):
                diagnostics.append(exc.diagnostic)
        except VerificationError as exc:
            proved, reason, obligations = False, str(exc), []
            diagnostics.append(make("REP202", str(exc)))

        if proved:
            return ProofResult(
                status="proved",
                reason=reason,
                is_commutative=commutative,
                is_associative=associative,
                obligations=obligations,
            )

        counterexample = self.extended_checker.check(summary)
        if counterexample is not None:
            return ProofResult(
                status="refuted",
                reason="extended-domain counter-example",
                counterexample=counterexample,
                is_commutative=commutative,
                is_associative=associative,
                diagnostics=diagnostics,
            )
        if not diagnostics:
            # Tier 1 declined without an exception (shape not inductive):
            # still a structured demotion, not just free text.
            diagnostics.append(
                make("REP202", f"inductive proof not applicable: {reason}")
            )
        return ProofResult(
            status="unknown",
            reason=f"inductive proof not applicable: {reason}",
            is_commutative=commutative,
            is_associative=associative,
            diagnostics=diagnostics,
        )

    def accepts(self, result: ProofResult) -> bool:
        """Whether a proof result lets the candidate into the Δ set."""
        if result.status == "proved":
            return True
        if result.status == "unknown":
            return self.accept_bounded_only
        return False

    # ------------------------------------------------------------------
    # Tier 2

    @cached_property
    def extended_checker(self) -> BoundedChecker:
        """The extended-domain states, drawn once per verifier and run
        only as far as the candidates' checks reach."""
        size = _extended_dataset_size(self.analysis)
        states = self.extended_states if size <= 16 else max(24, self.extended_states // 4)
        return BoundedChecker(
            self.analysis,
            config=_fresh_extended_config(self.seed, size),
            num_states=states,
        )

    # ------------------------------------------------------------------
    # Tier 1

    @staticmethod
    def _reduce_lambda(summary: Summary) -> Optional[ReduceLambda]:
        for stage in summary.pipeline.stages:
            if isinstance(stage, ReduceStage):
                return stage.lam
        return None

    def _try_inductive(self, summary: Summary) -> tuple[bool, str, list[str]]:
        stages = summary.pipeline.stages
        if any(isinstance(s, JoinStage) for s in stages):
            return self._prove_join(summary)
        shape = tuple(
            "m" if isinstance(s, MapStage) else "r" for s in stages
        )
        if shape not in (("m",), ("m", "r"), ("m", "r", "m")):
            return False, f"unsupported stage shape {shape}", []

        view = self.analysis.view
        if view.kind in ("foreach", "array1d"):
            return self._prove_flat_loop(summary, shape, self.analysis.fragment.loop)
        if view.kind == "array2d":
            return self._prove_nested_loop(summary, shape)
        return False, f"unsupported view kind {view.kind}", []

    # -- flat (single) loops -------------------------------------------

    def _loop_body(self, loop: ast.Stmt) -> list[ast.Stmt]:
        if isinstance(loop, ast.ForEach):
            body = loop.body
        elif isinstance(loop, ast.For):
            body = loop.body
        else:
            raise VerificationError("unsupported loop form for induction")
        return body.stmts if isinstance(body, ast.Block) else [body]

    def _element_bindings(self) -> dict[str, IRExpr]:
        """Source-var → IR-term bindings for one symbolic element."""
        view = self.analysis.view
        bindings: dict[str, IRExpr] = {}
        kinds = {f.name: str(f.jtype) for f in view.element_fields}
        for atom in view.field_names:
            bindings[atom] = Var(atom, _ir_kind(kinds.get(atom, "int")))
        if view.element_var is not None:
            # The foreach binder denotes the whole element (selections
            # append it; struct fields are reached via FieldAccess).
            bindings.setdefault(view.element_var, Var("__element", "other"))
        # Broadcast inputs: scalars, plus read-only containers (looked up
        # with the IR's ``lookup`` function).
        for name, jtype in self.analysis.input_vars.items():
            if name in view.sources:
                continue
            if name not in bindings:
                if jtype.is_collection() or str(jtype).startswith("Map"):
                    bindings[name] = Var(name, "container")
                else:
                    bindings[name] = Var(name, _ir_kind(str(jtype)))
        # Prelude constants (dt1, keys, ...) stay symbolic unless scalar.
        for name, value in self.analysis.prelude_constants.items():
            if name in self.analysis.output_vars:
                continue
            if isinstance(value, bool):
                bindings[name] = Const(value, "boolean")
            elif isinstance(value, (int, float)):
                bindings[name] = Const(value, "double" if isinstance(value, float) else "int")
            elif isinstance(value, str):
                bindings[name] = Const(value, "String")
            else:
                bindings.setdefault(name, Var(name, "int"))
        return bindings

    def _symexec_body(
        self,
        stmts: list[ast.Stmt],
        acc_bindings: dict[str, IRExpr],
        containers: set[str],
    ) -> list[SymState]:
        view = self.analysis.view
        bindings = self._element_bindings()
        bindings.update(acc_bindings)
        # Map array reads a[i] to the element atom named after the array.
        executor = SymbolicExecutor(
            bindings=bindings,
            containers=containers,
            element_class=view.element_class,
            element_var=view.element_var,
        )
        if view.kind in ("array1d", "array2d"):
            stmts = [_rewrite_array_reads(s, view) for s in stmts]
        return executor.execute(stmts)

    def _prove_flat_loop(
        self, summary: Summary, shape: tuple[str, ...], loop: ast.Stmt
    ) -> tuple[bool, str, list[str]]:
        obligations: list[str] = []
        view = self.analysis.view
        body = self._loop_body(loop)

        scalar_outputs = [
            b for b in summary.outputs if b.kind == "keyed"
        ]
        container_outputs = [b for b in summary.outputs if b.kind == "whole"]

        if shape == ("m", "r", "m") and view.kind in ("foreach", "array1d"):
            return False, "finalizer map on flat loop not supported by induction", []

        map_stage = summary.pipeline.stages[0]
        assert isinstance(map_stage, MapStage)
        reduce_lam = self._reduce_lambda(summary)

        containers = {b.var for b in container_outputs}
        acc_bindings = {
            b.var: Var(f"__acc_{b.var}", "double") for b in scalar_outputs
        }
        paths = self._symexec_body(body, acc_bindings, containers)

        # Obligation 1: initiation — prelude value equals binding default.
        ok, reason = self._check_initiation(summary)
        if not ok:
            return False, reason, obligations
        obligations.append("initiation")

        # Obligation 2: identity — λr(default, v) ≡ v (when reducing).
        if reduce_lam is not None:
            for binding in summary.outputs:
                ok, reason = self._check_identity(reduce_lam, binding)
                if not ok:
                    return False, reason, obligations
            obligations.append("identity")

        # Obligation 3: step — per output variable.
        for binding in scalar_outputs:
            ok, reason = self._check_scalar_step(
                binding, scalar_outputs, map_stage, reduce_lam, paths, acc_bindings
            )
            if not ok:
                return False, reason, obligations
        for binding in container_outputs:
            ok, reason = self._check_container_step(
                binding, map_stage, reduce_lam, paths
            )
            if not ok:
                return False, reason, obligations
        obligations.append("step")
        return True, "inductive proof complete", obligations

    # -- nested loops ---------------------------------------------------

    def _prove_nested_loop(
        self, summary: Summary, shape: tuple[str, ...]
    ) -> tuple[bool, str, list[str]]:
        view = self.analysis.view
        loop = self.analysis.fragment.loop
        if not isinstance(loop, ast.For):
            return False, "nested proof requires counter loops", []
        outer_body = self._loop_body(loop)

        # Structure: [inits..., inner-for, suffix...]
        inner_index = next(
            (i for i, s in enumerate(outer_body) if isinstance(s, ast.For)), None
        )
        if inner_index is None:
            return False, "no inner loop found", []
        inits = outer_body[:inner_index]
        inner = outer_body[inner_index]
        suffix = outer_body[inner_index + 1 :]
        assert isinstance(inner, ast.For)
        inner_body = self._loop_body(inner)

        # Flattened case: the outer body is exactly the inner loop — treat
        # the element stream (i, j, v) as a flat fold.
        if not inits and not suffix:
            flat = self._prove_flat_body(summary, shape, inner_body)
            return flat

        if shape == ("m",):
            return False, "map-only summary cannot express nested accumulation", []

        map_stage = summary.pipeline.stages[0]
        assert isinstance(map_stage, MapStage)
        reduce_lam = self._reduce_lambda(summary)
        assert reduce_lam is not None

        container_outputs = [b for b in summary.outputs if b.kind == "whole"]
        if len(container_outputs) != 1 or len(summary.outputs) != 1:
            return False, "nested proof supports one container output", []
        out_binding = container_outputs[0]

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
        if term_key(normalize(emit.key)) != term_key(normalize(group_key)):
            return False, "stage-1 emit key is not the outer loop index", []

        acc_sym = Var(f"__acc_{acc}", "double")
        paths = self._symexec_body(inner_body, {acc: acc_sym}, set())
        merged = self._merge_term(acc_sym, [emit], reduce_lam, value_only=True)
        ok, reason = self._case_equal(
            [(p, p.scalars.get(acc, acc_sym)) for p in paths], merged
        )
        if not ok:
            return False, f"inner fold mismatch: {reason}", []

        # Identity for the inner init value: λr(init, v) ≡ v.
        init_term = self._lang_const_term(init_stmt.init)
        if init_term is None:
            return False, "accumulator initializer is not a constant", []
        v = Var("ν", "double")
        merged_first = substitute(
            reduce_lam.body,
            {reduce_lam.params[0]: init_term, reduce_lam.params[1]: v},
        )
        if not _terms_equal_cases(merged_first, v):
            return False, "inner reduce identity fails for initializer", []

        # (b) The suffix writes exactly out[i] = fin(acc); match finalizer.
        if len(suffix) != 1:
            return False, "nested proof expects a single finalizer statement", []
        fin_paths = self._symexec_body(suffix, {acc: acc_sym}, {out_binding.var})
        if len(fin_paths) != 1:
            return False, "conditional finalizers unsupported", []
        writes = fin_paths[0].writes.get(out_binding.var, [])
        if len(writes) != 1:
            return False, "finalizer must write exactly one cell", []
        write_key, write_value = writes[0]
        if term_key(normalize(write_key)) != term_key(normalize(group_key)):
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
            if term_key(normalize(key_term)) != term_key(normalize(group_key)):
                return False, "finalizer stage does not preserve the key", []
            if not _terms_equal_cases(value_term, write_value):
                return False, "finalizer value mismatch", []
        else:  # ("m", "r") — suffix must be the identity finalizer
            if not _terms_equal_cases(write_value, acc_sym):
                return False, "missing finalizer stage for non-identity suffix", []

        return True, "inductive proof complete (nested)", ["initiation", "identity", "step", "finalizer"]

    # -- join nests -----------------------------------------------------

    def _prove_join(self, summary: Summary) -> tuple[bool, str, list[str]]:
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

        * **Pointwise** — for one matched tuple, symbolic execution of
          the innermost body (fields rewritten to relation atoms,
          residual guards included) must equal merging the post-join
          emits into the accumulator, by the same case-enumeration
          equality the flat fold proof uses.  Order-independence of the
          fold is discharged by requiring λr commutative + associative
          (checked algebraically), so multiset equality suffices.

        Container outputs and shapes outside the canonical skeleton fall
        back to Tier-2 extended-domain refutation.
        """
        from ..lang.analysis.joins import rewrite_side_fields
        from ..synthesis.joins import JoinCandidateEnumerator

        join = self.analysis.join
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
            expected = TupleExpr(tuple(Var(f.name) for f in side.fields))
            if term_key(normalize(emit.value)) != term_key(normalize(expected)):
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
                    return (
                        False,
                        "join keys do not match the source equi-predicate",
                        [],
                    )
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
                tuple_path = JoinCandidateEnumerator._tuple_path(
                    position[side.source], depth
                )
                for f_index, fld in enumerate(side.fields):
                    expected = Proj(tuple_path, f_index)
                    if term_key(normalize(emit.key)) == term_key(
                        normalize(expected)
                    ):
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
        commutative, associative = check_reduce_properties(reduce_lam)
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

        ok, reason = self._check_initiation(summary)
        if not ok:
            return False, reason, []
        for binding in summary.outputs:
            ok, reason = self._check_identity(reduce_lam, binding)
            if not ok:
                return False, reason, []

        # Translate the post-join emits back into relation-field space:
        # the joined value is literally the nested tuple of field tuples.
        value_term: IRExpr = TupleExpr(
            tuple(Var(f.name) for f in join.base.fields)
        )
        for level in order:
            side_tuple = TupleExpr(tuple(Var(f.name) for f in level.side.fields))
            value_term = TupleExpr((value_term, side_tuple))
        mapping = {"v": value_term, "k": Var(key_field)}

        body = [rewrite_side_fields(s, join) for s in join.guarded_body]
        acc_bindings = {
            b.var: Var(f"__acc_{b.var}", "double") for b in summary.outputs
        }
        paths = self._symexec_body(body, acc_bindings, set())
        for binding in summary.outputs:
            emits = self._matching_emits(binding, post)
            if not emits:
                return False, f"no emit feeds output {binding.var!r}", []
            translated = [
                Emit(
                    key=emit.key,
                    value=normalize(substitute(emit.value, mapping)),
                    cond=(
                        normalize(substitute(emit.cond, mapping))
                        if emit.cond is not None
                        else None
                    ),
                )
                for emit in emits
            ]
            acc = acc_bindings[binding.var]
            merged = self._merge_term(acc, translated, reduce_lam)
            pairs = [(p, p.scalars.get(binding.var, acc)) for p in paths]
            ok, reason = self._case_equal(pairs, merged)
            if not ok:
                return False, f"join step mismatch for {binding.var!r}: {reason}", []
        return (
            True,
            "inductive join proof complete",
            ["initiation", "identity", "multiset", "join-step"],
        )

    def _prove_flat_body(
        self, summary: Summary, shape: tuple[str, ...], body: list[ast.Stmt]
    ) -> tuple[bool, str, list[str]]:
        """Prove a flattened nested loop as if it were a single loop."""
        if shape == ("m", "r", "m"):
            return False, "finalizer map on flattened loop unsupported", []
        map_stage = summary.pipeline.stages[0]
        assert isinstance(map_stage, MapStage)
        reduce_lam = self._reduce_lambda(summary)

        scalar_outputs = [b for b in summary.outputs if b.kind == "keyed"]
        container_outputs = [b for b in summary.outputs if b.kind == "whole"]
        containers = {b.var for b in container_outputs}
        acc_bindings = {
            b.var: Var(f"__acc_{b.var}", "double") for b in scalar_outputs
        }
        paths = self._symexec_body(body, acc_bindings, containers)

        ok, reason = self._check_initiation(summary)
        if not ok:
            return False, reason, []
        if reduce_lam is not None:
            for binding in summary.outputs:
                ok, reason = self._check_identity(reduce_lam, binding)
                if not ok:
                    return False, reason, []
        for binding in scalar_outputs:
            ok, reason = self._check_scalar_step(
                binding, scalar_outputs, map_stage, reduce_lam, paths, acc_bindings
            )
            if not ok:
                return False, reason, []
        for binding in container_outputs:
            ok, reason = self._check_container_step(
                binding, map_stage, reduce_lam, paths
            )
            if not ok:
                return False, reason, []
        return True, "inductive proof complete (flattened)", ["initiation", "identity", "step"]

    # -- obligations ----------------------------------------------------

    def _check_initiation(self, summary: Summary) -> tuple[bool, str]:
        """Binding defaults must equal the prelude's output values."""
        prelude = self.analysis.prelude_constants
        for binding in summary.outputs:
            if binding.kind != "keyed":
                continue  # container defaults checked structurally below
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

    def _check_identity(
        self, reduce_lam: ReduceLambda, binding: OutputBinding
    ) -> tuple[bool, str]:
        """λr(default, v) ≡ v so the first merge equals the first fold."""
        default = binding.default
        if binding.kind == "whole":
            default_term: IRExpr = _const_term(default if default is not None else 0)
        else:
            if default is None:
                return True, ""  # map-typed default handled by presence split
            default_term = _const_term(default)
        v = Var("ν", "double")
        merged = substitute(
            reduce_lam.body, {reduce_lam.params[0]: default_term, reduce_lam.params[1]: v}
        )
        if binding.project is not None:
            # Tuple-valued accumulators: check componentwise with a tuple var.
            width = binding.project + 1
            for other in range(width):
                pass
            return True, ""  # handled by the tuple step check
        if _terms_equal_cases(merged, v):
            return True, ""
        return False, f"reduce identity fails for default {default!r}"

    def _matching_emits(self, binding: OutputBinding, map_stage: MapStage) -> list[Emit]:
        """Emits of the first map stage that feed this output binding."""
        if binding.kind == "whole":
            return list(map_stage.lam.emits)
        matches = []
        for emit in map_stage.lam.emits:
            if binding.key is not None and term_key(normalize(emit.key)) == term_key(
                normalize(binding.key)
            ):
                matches.append(emit)
        return matches

    def _merge_term(
        self,
        old: IRExpr,
        emits: list[Emit],
        reduce_lam: Optional[ReduceLambda],
        value_only: bool = False,
    ) -> IRExpr:
        """The summary-side term: merge one element's emits into ``old``."""
        current = old
        for emit in emits:
            value = emit.value
            if reduce_lam is None:
                merged = value
            else:
                merged = substitute(
                    reduce_lam.body,
                    {reduce_lam.params[0]: current, reduce_lam.params[1]: value},
                )
            if emit.cond is not None:
                current = Cond(emit.cond, merged, current)
            else:
                current = merged
        return current

    def _check_scalar_step(
        self,
        binding: OutputBinding,
        all_scalar: list[OutputBinding],
        map_stage: MapStage,
        reduce_lam: Optional[ReduceLambda],
        paths: list[SymState],
        acc_bindings: dict[str, IRExpr],
    ) -> tuple[bool, str]:
        emits = self._matching_emits(binding, map_stage)
        if not emits:
            return False, f"no emit feeds output {binding.var!r}"
        acc = acc_bindings[binding.var]
        if binding.project is not None:
            return self._check_tuple_step(
                binding, all_scalar, emits, reduce_lam, paths, acc_bindings
            )
        if reduce_lam is None:
            return False, "scalar output requires a reduce stage"
        merged = self._merge_term(acc, emits, reduce_lam)
        pairs = [(p, p.scalars.get(binding.var, acc)) for p in paths]
        ok, reason = self._case_equal(pairs, merged)
        if not ok:
            return False, f"step mismatch for {binding.var!r}: {reason}"
        return True, ""

    def _check_tuple_step(
        self,
        binding: OutputBinding,
        all_scalar: list[OutputBinding],
        emits: list[Emit],
        reduce_lam: Optional[ReduceLambda],
        paths: list[SymState],
        acc_bindings: dict[str, IRExpr],
    ) -> tuple[bool, str]:
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
        merged = self._merge_term(acc_tuple, emits, reduce_lam)
        # Identity against the tuple of defaults.
        defaults = TupleExpr(tuple(_const_term(b.default) for b in group))
        v = Var("ν", "double")
        first = substitute(
            reduce_lam.body, {reduce_lam.params[0]: defaults, reduce_lam.params[1]: v}
        )
        if not _terms_equal_cases(first, v):
            return False, "tuple reduce identity fails"
        for component, member in enumerate(group):
            pairs = [
                (p, p.scalars.get(member.var, acc_bindings[member.var])) for p in paths
            ]
            ok, reason = self._case_equal(pairs, Proj(merged, component))
            if not ok:
                return False, f"tuple step mismatch for {member.var!r}: {reason}"
        return True, ""

    def _check_container_step(
        self,
        binding: OutputBinding,
        map_stage: MapStage,
        reduce_lam: Optional[ReduceLambda],
        paths: list[SymState],
    ) -> tuple[bool, str]:
        emits = self._matching_emits(binding, map_stage)
        if not emits:
            return False, f"no emit feeds container {binding.var!r}"
        if binding.container in ("bag", "set"):
            return self._check_bag_or_set_step(binding, emits, paths)
        for path in paths:
            writes = path.writes.get(binding.var, [])
            emit_side = self._container_merge_for_path(binding, emits, reduce_lam, path)
            if emit_side is None:
                return False, "could not derive container merge term"
            key_term, merged, guard_atoms = emit_side
            if not writes:
                # No write on this path ⇒ the merge must be a no-op.
                old = self._cell_var(binding, key_term)
                ok, reason = self._case_equal([(path, old)], merged)
                if not ok:
                    return False, f"container no-op mismatch: {reason}"
                continue
            if len(writes) > 1:
                # Later writes shadow earlier ones in symexec; take the last.
                pass
            write_key, write_value = writes[-1]
            if term_key(normalize(write_key)) != term_key(normalize(key_term)):
                return (
                    False,
                    f"cell key mismatch: wrote {write_key}, emits {key_term}",
                )
            ok, reason = self._case_equal([(path, write_value)], merged)
            if not ok:
                return False, f"container step mismatch: {reason}"
        return True, ""

    def _check_bag_or_set_step(
        self,
        binding: OutputBinding,
        emits: list[Emit],
        paths: list[SymState],
    ) -> tuple[bool, str]:
        """Bag/set outputs: per path, appends must match guarded emits.

        For bags the emitted *value* is appended; for sets the *key* is the
        inserted element.  Every feasible case must either (guard true)
        append exactly the emitted term or (guard false) append nothing.
        """
        if len(emits) != 1:
            return False, "bag/set outputs support a single emit"
        emit = emits[0]
        emitted = emit.key if binding.container == "set" else emit.value

        atoms: dict[str, IRExpr] = {}
        for source in [emitted] + ([emit.cond] if emit.cond is not None else []):
            for a in collect_atoms(source):
                atoms[term_key(a)] = a
        for state in paths:
            for atom, _ in state.path:
                for a in collect_atoms(atom):
                    atoms[term_key(a)] = a
                normalized = normalize(atom)
                if not isinstance(normalized, Const):
                    atoms[term_key(normalized)] = normalized

        keys = sorted(atoms)
        if len(keys) > _MAX_CASE_ATOMS:
            return False, "too many atoms for bag/set case enumeration"
        atom_list = [atoms[k] for k in keys]
        assignments = (
            [
                dict(zip(keys, values))
                for values in itertools.product((False, True), repeat=len(keys))
            ]
            if keys
            else [{}]
        )
        matched_any = False
        for assignment in assignments:
            if keys and not assignment_feasible(atom_list, assignment):
                continue
            normalizer = Normalizer(assignment)
            if emit.cond is None:
                guard_holds = True
            else:
                guard_value = normalizer.normalize(emit.cond)
                if not isinstance(guard_value, Const):
                    return False, "emit guard undecided by case analysis"
                guard_holds = bool(guard_value.value)
            for state in paths:
                if not self._path_active(state, assignment, normalizer):
                    continue
                matched_any = True
                adds = state.appends.get(binding.var, [])
                if guard_holds:
                    if len(adds) != 1:
                        return False, "guard holds but path appends nothing"
                    if term_key(normalizer.normalize(adds[0])) != term_key(
                        normalizer.normalize(emitted)
                    ):
                        return False, "appended element differs from emit"
                else:
                    if adds:
                        return False, "guard fails but path appends"
        if not matched_any and paths:
            return False, "no body path could be activated by case analysis"
        return True, ""

    def _container_merge_for_path(
        self,
        binding: OutputBinding,
        emits: list[Emit],
        reduce_lam: Optional[ReduceLambda],
        path: SymState,
    ) -> Optional[tuple[IRExpr, IRExpr, list[IRExpr]]]:
        """Key term + merged value term for the (single) cell an element hits."""
        keys = {term_key(normalize(e.key)): normalize(e.key) for e in emits}
        if len(keys) != 1:
            return None
        key_term = next(iter(keys.values()))
        old = self._cell_var(binding, key_term)
        current = old
        for emit in emits:
            if reduce_lam is None:
                merged: IRExpr = emit.value
            else:
                merged = substitute(
                    reduce_lam.body,
                    {reduce_lam.params[0]: current, reduce_lam.params[1]: emit.value},
                )
            current = Cond(emit.cond, merged, current) if emit.cond is not None else merged
        return key_term, current, []

    def _cell_var(self, binding: OutputBinding, key_term: IRExpr) -> Var:
        from .symexec import CellRef

        return Var(CellRef(binding.var, normalize(key_term)).name, "double")

    # -- the case-enumeration equality core ------------------------------

    def _case_equal(
        self, path_terms: list[tuple[SymState, IRExpr]], summary_term: IRExpr
    ) -> tuple[bool, str]:
        """Check Σ-side term equals the body's per-path terms on all cases."""
        atoms: dict[str, IRExpr] = {}
        for state, term in path_terms:
            for atom, _ in state.path:
                for a in collect_atoms(atom):
                    atoms[term_key(a)] = a
                normalized = normalize(atom)
                if not isinstance(normalized, Const):
                    atoms[term_key(normalized)] = normalized
            for a in collect_atoms(term):
                atoms[term_key(a)] = a
        for a in collect_atoms(summary_term):
            atoms[term_key(a)] = a

        keys = sorted(atoms)
        if len(keys) > _MAX_CASE_ATOMS:
            raise VerificationError("too many atoms for case enumeration")
        atom_list = [atoms[k] for k in keys]

        assignments = (
            [dict(zip(keys, values)) for values in itertools.product((False, True), repeat=len(keys))]
            if keys
            else [{}]
        )
        matched_any = False
        for assignment in assignments:
            if keys and not assignment_feasible(atom_list, assignment):
                continue
            normalizer = Normalizer(assignment)
            summary_value = normalizer.normalize(summary_term)
            matched = False
            for state, term in path_terms:
                if not self._path_active(state, assignment, normalizer):
                    continue
                body_value = normalizer.normalize(term)
                matched = True
                matched_any = True
                if term_key(body_value) != term_key(summary_value):
                    return (
                        False,
                        f"under {assignment}: body={body_value} summary={summary_value}",
                    )
            if not matched and path_terms:
                # No body path is consistent — assignment infeasible in the
                # body's own terms; nothing to check for it.
                continue
        if path_terms and not matched_any:
            # Every assignment left every path undecided: the atoms of the
            # body never resolved, so nothing was actually proven.
            return False, "no body path could be activated by case analysis"
        return True, ""

    @staticmethod
    def _path_active(
        state: SymState, assignment: dict[str, bool], normalizer: Normalizer
    ) -> bool:
        for atom, expected in state.path:
            value = normalizer.normalize(atom)
            if isinstance(value, Const):
                if bool(value.value) != expected:
                    return False
            else:
                return False  # atom not decided by assignment: treat inactive
        return True

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _lang_const_term(expr: ast.Expr) -> Optional[IRExpr]:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value, "int")
        if isinstance(expr, ast.FloatLit):
            return Const(expr.value, "double")
        if isinstance(expr, ast.BoolLit):
            return Const(expr.value, "boolean")
        if isinstance(expr, ast.StringLit):
            return Const(expr.value, "String")
        if (
            isinstance(expr, ast.FieldAccess)
            and isinstance(expr.base, ast.Name)
            and expr.base.ident in ("Integer", "Double", "Long")
        ):
            from ..lang.stdlib import static_field

            return _const_term(static_field(expr.base.ident, expr.field))
        if isinstance(expr, ast.UnOp) and expr.op == "-":
            inner = FullVerifier._lang_const_term(expr.operand)
            if isinstance(inner, Const) and not isinstance(inner.value, str):
                return Const(-inner.value, inner.kind)
        return None


def _ir_kind(type_name: str) -> str:
    if type_name in ("double", "float"):
        return "double"
    if type_name == "boolean":
        return "boolean"
    if type_name == "String":
        return "String"
    return "int"


def _const_term(value: Any) -> IRExpr:
    if isinstance(value, bool):
        return Const(value, "boolean")
    if isinstance(value, float):
        return Const(value, "double")
    if isinstance(value, int):
        return Const(value, "int")
    if isinstance(value, str):
        return Const(value, "String")
    return Const(0, "int")


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


def _rewrite_array_reads(stmt: ast.Stmt, view) -> ast.Stmt:
    """Rewrite ``a[i]`` / ``a.get(i)`` to the element atom named ``a``.

    For array1d views, each source array read at the loop index becomes the
    corresponding element atom so symbolic execution sees a pure function
    of the element.
    """
    import copy

    stmt = copy.deepcopy(stmt)
    index_var = view.index_vars[0]
    inner_var = view.index_vars[1] if len(view.index_vars) > 1 else None
    sources = set(view.sources)

    def rewrite(expr: ast.Expr) -> ast.Expr:
        # 2D matrix read m[i][j] → element atom "v".
        if (
            inner_var is not None
            and isinstance(expr, ast.Index)
            and isinstance(expr.base, ast.Index)
            and isinstance(expr.base.base, ast.Name)
            and expr.base.base.ident in sources
            and isinstance(expr.base.index, ast.Name)
            and expr.base.index.ident == index_var
            and isinstance(expr.index, ast.Name)
            and expr.index.ident == inner_var
        ):
            return ast.Name("v", line=expr.line)
        if (
            isinstance(expr, ast.Index)
            and isinstance(expr.base, ast.Name)
            and expr.base.ident in sources
            and isinstance(expr.index, ast.Name)
            and expr.index.ident == index_var
        ):
            return ast.Name(expr.base.ident, line=expr.line)
        if (
            isinstance(expr, ast.MethodCall)
            and expr.method == "get"
            and isinstance(expr.receiver, ast.Name)
            and expr.receiver.ident in sources
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.Name)
            and expr.args[0].ident == index_var
        ):
            return ast.Name(expr.receiver.ident, line=expr.line)
        for name, value in vars(expr).items():
            if isinstance(value, ast.Expr):
                setattr(expr, name, rewrite(value))
            elif isinstance(value, list):
                setattr(
                    expr,
                    name,
                    [rewrite(v) if isinstance(v, ast.Expr) else v for v in value],
                )
        return expr

    def rewrite_stmt(node: ast.Stmt) -> None:
        for name, value in vars(node).items():
            if isinstance(value, ast.Expr):
                setattr(node, name, rewrite(value))
            elif isinstance(value, ast.Stmt):
                rewrite_stmt(value)
            elif isinstance(value, list):
                new_items = []
                for item in value:
                    if isinstance(item, ast.Expr):
                        new_items.append(rewrite(item))
                    elif isinstance(item, ast.Stmt):
                        rewrite_stmt(item)
                        new_items.append(item)
                    else:
                        new_items.append(item)
                setattr(node, name, new_items)

    rewrite_stmt(stmt)
    return stmt

"""Full verification of program summaries: the theorem-prover substitute.

The paper sends candidate summaries (plus generated proof scripts) to
Dafny for verification over the unbounded domain (section 3.4).  This
module plays that role with a two-tier strategy:

**Tier 1 — inductive structural proof.**  For the summary shapes the IR
produces (map / map→reduce / map→reduce→map over a sequential fold, a
2-D loop nest, a join nest), the Hoare VCs of Fig. 4 reduce to algebraic
obligations, each a pure function in its own module:

* :mod:`~repro.verification.obligations` — initiation, identity and the
  step (scalar, tuple, container cell, bag/set), run in one sequence by
  :func:`~repro.verification.obligations.prove_fold`;
* :mod:`~repro.verification.nests` — the nested-loop decomposition (inner
  fold, initializer identity, finalizer) and the join nest's multiset
  half;
* :mod:`~repro.verification.loops` — the body side: symbolic execution
  of the loop body per element;
* :mod:`~repro.verification.cases` — the one case-enumeration core every
  term equality goes through (AC normalization per feasible assignment
  of the boolean atoms, :mod:`repro.verification.algebra`).

A successful Tier-1 run is a genuine inductive proof for the modelled
semantics (arbitrary-precision integers; Java overflow not modelled, as
in Dafny's default int theory).  :class:`FullVerifier` only orchestrates:
λr's properties, Tier 1 by shape, then Tier 2.

**Tier 2 — extended-domain refutation.**  When Tier 1 cannot apply (shape
not recognized, path explosion), the candidate is tested on hundreds of
states drawn from a much larger domain than the synthesizer's bounded
check (sizes up to 8, |int| up to 64).  A counter-example refutes the
candidate exactly as a Dafny rejection would; a surviving candidate is
reported ``unknown`` with the domain it was checked on, and the
pipeline's verify-attach gate decides whether it runs.

Either way, candidates that exploit bounded-domain coincidences (the
paper's ``v`` vs ``min(4, v)`` example) are rejected and flow into the
Ω blocking set of the search algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..diagnostics.diagnostic import Diagnostic, diagnostic_from_data, make
from ..errors import SymbolicUnsupported, VerificationError
from ..ir.nodes import IRExpr, JoinStage, MapStage, ReduceLambda, Summary, Var
from ..lang.analysis.fragments import FragmentAnalysis
from .algebra import substitute
from .bounded import BoundedCheckConfig, BoundedChecker, ProgramState
from .cases import terms_equal_cases
from .loops import loop_body
from .nests import prove_join, prove_nested_loop
from .obligations import prove_fold, reduce_lambda


@dataclass
class ProofResult:
    """Outcome of full verification."""

    status: str  # "proved" | "refuted" | "unknown"
    reason: str = ""
    counterexample: Optional[ProgramState] = None
    is_commutative: bool = False
    is_associative: bool = False
    obligations: list[str] = field(default_factory=list)
    #: For an ``unknown`` (Tier-2) result, the state domain the extended
    #: check found no counterexample on (``FullVerifier.tier2_domain``).
    domain: str = ""
    #: Structured account of why Tier 1 did not apply (REP201/REP202);
    #: empty for proved results.
    diagnostics: list[Diagnostic] = field(default_factory=list)


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
    if proof.domain:
        data["domain"] = proof.domain
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
        domain=data.get("domain", ""),
        # Pre-diagnostics cache entries have no "diagnostics" key.
        diagnostics=[
            diagnostic_from_data(item) for item in data.get("diagnostics", [])
        ],
    )


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

    commutative = terms_equal_cases(apply(a, b), apply(b, a))
    associative = terms_equal_cases(apply(apply(a, b), c), apply(a, apply(b, c)))
    return commutative, associative


def prove_inductive(
    analysis: FragmentAnalysis, summary: Summary, commutative: bool, associative: bool
) -> tuple[bool, str, list[str]]:
    """Tier 1, chosen by the summary's shape and the fragment's view:
    ``(proved, reason, obligations checked)``."""
    stages = summary.pipeline.stages
    if any(isinstance(s, JoinStage) for s in stages):
        return prove_join(analysis, summary, commutative, associative)
    shape = tuple("m" if isinstance(s, MapStage) else "r" for s in stages)
    if shape not in (("m",), ("m", "r"), ("m", "r", "m")):
        return False, f"unsupported stage shape {shape}", []
    kind = analysis.view.kind
    if kind in ("foreach", "array1d"):
        if shape == ("m", "r", "m"):
            return False, "finalizer map on flat loop not supported by induction", []
        body = loop_body(analysis.fragment.loop)
        return prove_fold(analysis, summary, body, "inductive proof complete")
    if kind == "array2d":
        return prove_nested_loop(analysis, summary, shape)
    return False, f"unsupported view kind {kind}", []


class FullVerifier:
    """Verifies candidate summaries over the unbounded domain: Tier 1
    (:func:`prove_inductive`), else Tier 2 (:attr:`extended_checker`)."""

    def __init__(
        self,
        analysis: FragmentAnalysis,
        extended_states: int = 120,
        seed: int = 1729,
    ):
        self.analysis = analysis
        self.extended_states = extended_states
        self.seed = seed

    def verify(self, summary: Summary) -> ProofResult:
        """Run Tier-1 inductive proof, falling back to Tier-2 refutation."""
        reduce_lam = reduce_lambda(summary)
        commutative = associative = False
        if reduce_lam is not None:
            commutative, associative = check_reduce_properties(reduce_lam)

        diagnostics: list[Diagnostic] = []
        try:
            proved, reason, obligations = prove_inductive(
                self.analysis, summary, commutative, associative
            )
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
            domain=self.tier2_domain,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # Tier 2

    @cached_property
    def extended_checker(self) -> BoundedChecker:
        """The extended-domain states, drawn once per verifier and run
        only as far as the candidates' checks reach."""
        config, states = self._extended_domain
        return BoundedChecker(self.analysis, config=config, num_states=states)

    @cached_property
    def tier2_domain(self) -> str:
        """One line naming the state domain an ``unknown`` result of this
        verifier was checked on — what its evidence covers, and so what
        it says nothing about."""
        config, states = self._extended_domain
        ints, dates = config.int_range, config.date_range
        return (
            f"{states} states of at most {config.max_dataset_size} records; "
            f"ints {ints[0]}..{ints[1]}, "
            f"doubles {{{', '.join(map(repr, config.float_values))}}}, "
            f"strings {{{', '.join(map(repr, config.string_pool))}}}, "
            f"dates {dates[0]}..{dates[1]}, each pool plus the fragment's own "
            f"constants (seed {config.seed})"
        )

    @cached_property
    def _extended_domain(self) -> tuple[BoundedCheckConfig, int]:
        """The Tier-2 check's bounds and how many states it draws."""
        size = _extended_dataset_size(self.analysis)
        states = self.extended_states if size <= 16 else max(24, self.extended_states // 4)
        return _fresh_extended_config(self.seed, size), states

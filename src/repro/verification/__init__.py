"""Verification of program summaries: bounded checking + inductive proof.

Two-phase verification (paper section 4.1): the synthesizer's bounded
model checker (:class:`BoundedChecker`) admits candidates fast; the full
verifier (:class:`FullVerifier`, the Dafny substitute) then proves or
refutes them over the unbounded domain.  The normalizer's constant
folder evaluates Java ``/`` and ``%`` with the IR evaluator's own
helpers, so a folded constant is the value every run computes.
"""

from .algebra import (
    Normalizer,
    assignment_feasible,
    collect_atoms,
    normalize,
    substitute,
    term_key,
    terms_equal,
)
from .bounded import (
    BoundedCheckConfig,
    BoundedChecker,
    ProgramState,
    StateGenerator,
    run_sequential_fragment,
)
from .prover import FullVerifier, ProofResult, check_reduce_properties
from .symexec import CellRef, SymbolicExecutor, SymState
from .vcgen import LoopInvariant, VCSet, VerificationCondition, generate_vcs

__all__ = [
    "BoundedCheckConfig",
    "BoundedChecker",
    "CellRef",
    "FullVerifier",
    "LoopInvariant",
    "Normalizer",
    "ProgramState",
    "ProofResult",
    "StateGenerator",
    "SymState",
    "SymbolicExecutor",
    "VCSet",
    "VerificationCondition",
    "assignment_feasible",
    "check_reduce_properties",
    "collect_atoms",
    "generate_vcs",
    "normalize",
    "run_sequential_fragment",
    "substitute",
    "term_key",
    "terms_equal",
]

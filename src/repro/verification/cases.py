"""The prover's one case-enumeration core.

Every Tier-1 equality the prover checks is an equality of IR terms that
may branch on boolean atoms (comparisons, boolean variables, string and
date predicates).  :func:`case_atoms` collects those atoms,
:func:`feasible_cases` enumerates the truth assignments to them that
:func:`assignment_feasible` admits, and a :class:`Normalizer` under each
assignment removes every conditional, so the two sides compare by
:func:`term_key`.

The callers differ only in what they compare and in what an over-limit
atom set means for their verdict: :func:`terms_equal_cases` answers
``False``, :func:`case_equal` raises :class:`VerificationError` (a
``REP202`` demotion) and the bag/set step returns its own reason.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, Iterator

from ..errors import VerificationError
from ..ir.nodes import Const, IRExpr
from .algebra import Normalizer, assignment_feasible, collect_atoms, normalize, term_key
from .symexec import SymState

#: Largest atom set a case split enumerates (2^10 assignments).
MAX_CASE_ATOMS = 10


def case_atoms(
    terms: Iterable[IRExpr], states: Iterable[SymState] = ()
) -> dict[str, IRExpr]:
    """The atoms ``terms`` and the path conditions of ``states`` branch
    on, keyed by :func:`term_key`."""
    atoms: dict[str, IRExpr] = {}
    for state in states:
        for condition, _ in state.path:
            for atom in collect_atoms(condition):
                atoms[term_key(atom)] = atom
            normalized = normalize(condition)
            if not isinstance(normalized, Const):
                atoms[term_key(normalized)] = normalized
    for term in terms:
        for atom in collect_atoms(term):
            atoms[term_key(atom)] = atom
    return atoms


def feasible_cases(atoms: dict[str, IRExpr]) -> Iterator[dict[str, bool]]:
    """Each feasible truth assignment to ``atoms``, in a fixed order.
    With no atoms there is one case: the empty assignment.

    Built from C-level iterators, so enumerating a case costs no Python
    call beyond the feasibility check itself.
    """
    keys = sorted(atoms)
    if not keys:
        return iter(({},))
    cases = map(
        dict,
        map(partial(zip, keys), itertools.product((False, True), repeat=len(keys))),
    )
    return filter(partial(assignment_feasible, list(map(atoms.__getitem__, keys))), cases)


def path_active(state: SymState, normalizer: Normalizer) -> bool:
    """Whether the assignment under ``normalizer`` decides every path
    condition of ``state`` the way the path took it."""
    for condition, expected in state.path:
        value = normalizer.normalize(condition)
        if not isinstance(value, Const):
            return False  # not decided by the assignment: treat inactive
        if bool(value.value) != expected:
            return False
    return True


def terms_equal_cases(left: IRExpr, right: IRExpr) -> bool:
    """Term equality on every feasible case of both sides' atoms."""
    atoms = case_atoms((left, right))
    if len(atoms) > MAX_CASE_ATOMS:
        return False
    for assignment in feasible_cases(atoms):
        normalizer = Normalizer(assignment)
        if term_key(normalizer.normalize(left)) != term_key(normalizer.normalize(right)):
            return False
    return True


def case_equal(
    path_terms: list[tuple[SymState, IRExpr]], summary_term: IRExpr
) -> tuple[bool, str]:
    """The summary-side term equals each body path's term on every case
    that activates that path."""
    atoms = case_atoms(
        [term for _, term in path_terms] + [summary_term],
        [state for state, _ in path_terms],
    )
    if len(atoms) > MAX_CASE_ATOMS:
        raise VerificationError("too many atoms for case enumeration")

    matched_any = False
    for assignment in feasible_cases(atoms):
        normalizer = Normalizer(assignment)
        summary_value = normalizer.normalize(summary_term)
        for state, term in path_terms:
            if not path_active(state, normalizer):
                continue
            matched_any = True
            body_value = normalizer.normalize(term)
            if term_key(body_value) != term_key(summary_value):
                return (
                    False,
                    f"under {assignment}: body={body_value} summary={summary_value}",
                )
    if path_terms and not matched_any:
        # Every assignment left every path undecided: the atoms of the
        # body never resolved, so nothing was actually proven.
        return False, "no body path could be activated by case analysis"
    return True, ""

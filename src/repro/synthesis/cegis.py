"""CEGIS: counter-example guided inductive synthesis (paper Fig. 5, lines 1-8).

``synthesize`` iterates a candidate generator against a bounded model
checker: candidates must be consistent with the accumulated example states
Φ; a candidate that fails bounded verification contributes the failing
state as a counter-example and the search restarts with the enlarged Φ.

The Φ-consistency test is implemented compositionally by
:class:`PartEvaluator` — each per-output piece of a summary is checked
against the expected outputs on every state in Φ before combination
(sound because reduce key-groups are independent).  It works by columns:
a pool expression is interpreted once per Φ state, however many
candidate parts combine it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, is_not, itemgetter
from typing import Any, Iterator, Optional, Sequence

from ..errors import InterpreterError, IRError
from ..lang.values import Instance, values_equal
from ..ir.eval import eval_expr
from ..ir.nodes import IRExpr, ReduceLambda, Summary
from ..lang.analysis.fragments import FragmentAnalysis
from ..verification.bounded import (
    BoundedChecker,
    FragmentRunResult,
    ProgramState,
    run_sequential_fragment,
    summary_globals,
)
from .enumerator import CandidateEnumerator, Column, PartFilter
from .grammar import ExpressionPools, GrammarClass


class _Raised:
    """A column cell whose evaluation raised.

    The exception is kept, not thrown: a guarded-off cell is never read,
    and a cell that is read re-raises exactly what per-part evaluation
    would have raised at that point.
    """

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


def _read(cell: Any) -> Any:
    if cell.__class__ is _Raised:
        raise cell.error
    return cell


class _Opaque(Exception):
    """A cell value with no content key: its column is not interned."""


def _cell_key(value: Any) -> Any:
    """A hashable key equal only for cells no verdict can tell apart.

    Stricter than ``values_equal`` and than ``==``: the exact type is
    part of the key (``True`` / ``1`` / ``1.0`` are three cells) and
    floats key on their hex form (``0.0`` / ``-0.0`` differ, NaN is one
    cell).  Anything not listed here is left un-interned.
    """
    kind = value.__class__
    if kind is float:
        return (float, value.hex())
    if kind is int or kind is bool or kind is str or value is None:
        return (kind, value)
    if kind is tuple:
        return (tuple, tuple([_cell_key(item) for item in value]))
    if kind is Instance:
        return (
            Instance,
            value.class_name,
            tuple([(name, _cell_key(item)) for name, item in value.fields.items()]),
        )
    if kind is _Raised:
        return (_Raised, value.error.__class__, str(value.error))
    raise _Opaque


class _PhiState:
    """One Φ state: its dataset, expected outputs, columns and verdicts."""

    __slots__ = (
        "envs",
        "globals_env",
        "expected",
        "output_sizes",
        "cells",
        "interned",
        "verdicts",
    )

    def __init__(self, analysis: FragmentAnalysis, run: FragmentRunResult):
        self.globals_env = summary_globals(analysis, run.globals_env)
        #: One environment per dataset element, in dataset order.
        self.envs = [
            {**self.globals_env, **element}
            for element in analysis.view.materialize(run.globals_env)
        ]
        self.expected = run.outputs
        self.output_sizes = run.output_sizes
        #: Column id → cells; id 0 is the absent column (no guard / no key).
        self.cells: list[Optional[list[Any]]] = [None]
        #: Content key → column id, for the columns that have one.
        self.interned: dict[Any, int] = {}
        #: (head, guard column, key column) → {value column → verdict}.
        self.verdicts: defaultdict[tuple[int, int, int], dict[int, bool]] = (
            defaultdict(dict)
        )

    def column(self, expr: Optional[IRExpr]) -> int:
        """Evaluate ``expr`` once per element; return its interned column id."""
        if expr is None:
            return 0
        cells: list[Any] = []
        for env in self.envs:
            try:
                cells.append(eval_expr(expr, env))
            except Exception as exc:  # re-raised by whichever part reads the cell
                cells.append(_Raised(exc))
        try:
            key = tuple([_cell_key(cell) for cell in cells])
        except _Opaque:
            self.cells.append(cells)
            return len(self.cells) - 1
        column_id = self.interned.get(key)
        if column_id is None:
            column_id = self.interned[key] = len(self.cells)
            self.cells.append(cells)
        return column_id


#: What a verdict depends on besides the three columns.
_Shape = tuple[
    str, Optional[str], object, Optional[ReduceLambda], Optional[tuple[IRExpr, IRExpr]]
]


class PartEvaluator(PartFilter):
    """The Φ-consistency filter, evaluated by columns.

    A pool expression is interpreted once per Φ state into a column of
    per-element cells; content-equal columns share an id; and the
    per-state verdict of a part is memoised on everything it depends on
    — ``(var, container, default, λr, finalizer)`` and the guard, key and
    value column ids.  The verdict itself walks the cells in the order
    per-part evaluation would read them (guard, key, value, λr — element
    by element), so which exception surfaces first, and the
    ``IRError → False`` rule, are unchanged.  One evaluator serves one
    :class:`Synthesizer`: a CEGIS restart adds the new counterexample
    with :meth:`add_state` and nothing already evaluated runs again.
    """

    def __init__(self, analysis: FragmentAnalysis, states: Sequence[ProgramState]):
        self.analysis = analysis
        self.states: list[_PhiState] = []
        #: id(expr) → its column.  The column holds the expression, so the
        #: id cannot be recycled for another one while the entry lives.
        self._columns: dict[int, Column] = {}
        #: repr of the verdict shape → small int.  By value, not identity:
        #: every enumeration builds fresh λr and finalizer objects.
        self._heads: dict[str, int] = {}
        for state in states:
            self.add_state(state)

    def add_state(self, state: ProgramState) -> None:
        """Grow Φ by one state (skipped when the source faults on it)."""
        try:
            run = run_sequential_fragment(self.analysis, state)
        except InterpreterError:
            return
        self.states.append(_PhiState(self.analysis, run))

    # ------------------------------------------------------------------

    def columns(self, exprs: Sequence[Optional[IRExpr]]) -> list[Column]:
        """The column of each expression on every Φ state (None: absent)."""
        result = []
        for expr in exprs:
            column = self._columns.get(id(expr))
            if column is None:
                column = self._columns[id(expr)] = Column(expr, [])
            ids = column.ids
            for state in self.states[len(ids) :]:
                ids.append(state.column(expr))
            result.append(column)
        return result

    def passing(
        self,
        var: str,
        container: Optional[str],
        default: object,
        reduce_lam: Optional[ReduceLambda],
        finalizer: Optional[tuple[IRExpr, IRExpr]],
        guard: Column,
        key: Column,
        values: Sequence[Column],
    ) -> Iterator[Column]:
        """Yield, in order, the ``values`` whose part agrees with every Φ state.

        ``container`` is None for a scalar output (``key`` is then the
        absent column).  A non-``IRError`` exception propagates from the
        first part, in enumeration order, that reads a cell holding one.
        """
        shape: _Shape = (var, container, default, reduce_lam, finalizer)
        head = self._heads.setdefault(repr(shape), len(self._heads))
        verdict = _scalar_verdict if container is None else _container_verdict
        rows = [
            (state, state.verdicts[head, g, k], g, k)
            for state, g, k in zip(self.states, guard.ids, key.ids)
        ]
        if rows:
            # Drop, in C, the values already memoised as failing on the
            # first state — the loop would break on them computing nothing.
            # ``compress`` is lazy: each value's memo entry is read when the
            # loop asks for it, after every verdict before it is stored.
            first_memo = rows[0][1]
            first_ids = map(itemgetter(0), map(attrgetter("ids"), values))
            values = compress(
                values, map(is_not, map(first_memo.get, first_ids), repeat(False))
            )
        for value in values:
            for (state, memo, g, k), v in zip(rows, value.ids):
                try:
                    ok = memo[v]
                except KeyError:
                    try:
                        ok = verdict(state, shape, g, k, v)
                    except IRError:
                        ok = False
                    memo[v] = ok
                if not ok:
                    break
            else:
                yield value


def _scalar_verdict(state: _PhiState, shape: _Shape, g: int, k: int, v: int) -> bool:
    var, _container, default, reduce_lam, _finalizer = shape
    guards, values = state.cells[g], state.cells[v]
    v1, v2 = reduce_lam.params
    acc: Any = None
    for index, cell in enumerate(values):
        if guards is not None and not _read(guards[index]):
            continue
        value = _read(cell)
        if acc is None:
            acc = value
        else:
            acc = eval_expr(reduce_lam.body, {**state.globals_env, v1: acc, v2: value})
    result = default if acc is None else acc
    return values_equal(result, state.expected.get(var))


def _container_verdict(state: _PhiState, shape: _Shape, g: int, k: int, v: int) -> bool:
    var, container, default, reduce_lam, finalizer = shape
    guards, keys, values = state.cells[g], state.cells[k], state.cells[v]
    expected = state.expected.get(var)
    env_base = state.globals_env
    live = (
        index
        for index in range(len(values))
        if guards is None or _read(guards[index])
    )

    if container == "bag":
        return values_equal([_read(values[index]) for index in live], expected)
    if container == "set":
        return values_equal({_read(keys[index]) for index in live}, expected)

    result_map: dict[Any, Any] = {}
    v1, v2 = ("v1", "v2")
    if reduce_lam is not None:
        v1, v2 = reduce_lam.params
    for index in live:
        key = _read(keys[index])
        value = _read(values[index])
        if reduce_lam is not None and key in result_map:
            result_map[key] = eval_expr(
                reduce_lam.body, {**env_base, v1: result_map[key], v2: value}
            )
        else:
            result_map[key] = value
    if finalizer is not None:
        fin_key, fin_value = finalizer
        finalized: dict[Any, Any] = {}
        for key, value in result_map.items():
            env = {**env_base, "k": key, "v": value}
            finalized[eval_expr(fin_key, env)] = eval_expr(fin_value, env)
        result_map = finalized

    if container == "map":
        return values_equal(result_map, expected)
    # array
    size = state.output_sizes.get(var)
    if size is None:
        size = (max(result_map.keys()) + 1) if result_map else 0
    got = [result_map.get(i, default) for i in range(size)]
    return values_equal(got, expected)


@dataclass
class SynthesisStats:
    """Counters reported by a synthesize run."""

    candidates_checked: int = 0
    counterexamples: int = 0
    restarts: int = 0


@dataclass
class Synthesizer:
    """The CEGIS loop of Fig. 5 for one grammar class."""

    analysis: FragmentAnalysis
    grammar_class: GrammarClass
    pools: ExpressionPools
    checker: BoundedChecker
    max_restarts: int = 8
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    #: Counterexample states recovered from a previous search on an
    #: alpha-equivalent fragment (summary-cache ``cex:`` entries).  They
    #: join Φ up front, so candidates a past run already refuted are
    #: filtered by :class:`PartEvaluator` before any bounded check runs.
    seed_states: list[ProgramState] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Φ starts with a few random program states (Fig. 5, line 2);
        # we seed it with the canonical empty/singleton/small states,
        # plus any cached counterexamples from earlier near-miss runs.
        self.phi: list[ProgramState] = [
            *self.seed_states,
            *self.checker.states[:4],
        ]
        #: Counterexamples *this* run discovered (excludes seeds) — the
        #: search layer persists them back to the cache.
        self.new_counterexamples: list[ProgramState] = []
        #: Distinct states that refuted a join candidate, most recent first.
        self._refuters: list[ProgramState] = []
        #: The join enumeration, resumed by each call: every candidate it
        #: already yielded was refuted (the checker's states are fixed, so
        #: it stays refuted) or is now in ``blocked``.
        self._join_candidates: Optional[Iterator[Summary]] = None
        #: The Φ filter, built on first use (join fragments have none) and
        #: kept across restarts and ``synthesize`` calls.
        self._part_filter: Optional[PartEvaluator] = None

    def synthesize(self, blocked: set[int]) -> Optional[Summary]:
        """Find the next candidate that passes bounded verification.

        ``blocked`` holds hashes of summaries in Ω ∪ Δ — they are excluded
        from the space (section 4.1) so the search always makes progress.
        Returns None when the class is exhausted.
        """
        if self.analysis.join is not None:
            return self._synthesize_join(blocked)
        if self._part_filter is None:
            self._part_filter = PartEvaluator(self.analysis, self.phi)
        for _ in range(self.max_restarts + 1):
            enumerator = CandidateEnumerator(
                self.analysis, self.grammar_class, self.pools, self._part_filter
            )
            restart = False
            for candidate in enumerator.candidates():
                if hash(candidate) in blocked:
                    continue
                self.stats.candidates_checked += 1
                counterexample = self.checker.check(candidate)
                if counterexample is None:
                    return candidate
                self.phi.append(counterexample)
                self._part_filter.add_state(counterexample)
                self.new_counterexamples.append(counterexample)
                self.stats.counterexamples += 1
                self.stats.restarts += 1
                restart = True
                break
            if not restart:
                return None  # search space exhausted for this class
        return None

    def _synthesize_join(self, blocked: set[int]) -> Optional[Summary]:
        """The join-space CEGIS loop.

        Join fragments have no per-part Φ filter (a candidate part's
        semantics depend on every relation at once, so parts cannot be
        checked against example states independently); instead, a
        refuted candidate is passed over and enumeration simply continues
        to the next one — no restarts.  A later call resumes the
        enumeration where the last one returned: ``blocked`` only grows,
        so every candidate already yielded stays refuted or blocked.

        Each check leads with the states that refuted earlier candidates,
        most recent first: neighbouring candidates tend to fail on the
        same state, and the verdict does not depend on the order.
        """
        if self._join_candidates is None:
            from .joins import JoinCandidateEnumerator

            self._join_candidates = JoinCandidateEnumerator(
                self.analysis, self.grammar_class, self.pools
            ).candidates()
        refuters = self._refuters
        for candidate in self._join_candidates:
            if hash(candidate) in blocked:
                continue
            self.stats.candidates_checked += 1
            counterexample = self.checker.check(candidate, first=refuters)
            if counterexample is None:
                return candidate
            if not refuters or refuters[0] is not counterexample:
                refuters[:] = [
                    counterexample,
                    *(state for state in refuters if state is not counterexample),
                ]
            self.phi.append(counterexample)
            self.new_counterexamples.append(counterexample)
            self.stats.counterexamples += 1
        return None

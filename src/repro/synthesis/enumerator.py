"""Typed enumeration of candidate program summaries from a grammar class.

The enumerator plays Sketch's role: it walks the search-space grammar
(production rules specialized to the fragment) and produces candidate
summaries in a deterministic order — smaller shapes and harvested terms
first, so that searching grammar classes in hierarchy order biases toward
computationally cheap summaries (paper section 4.2).

Candidates must describe *every* output variable of the fragment (the PS
form of Fig. 3).  Because ``reduce`` applies one λr to all key-groups,
multiple scalar outputs either share a λr under distinct keys or are
packed into one tuple-valued reduction (how StringMatch solution (b)
arises, Fig. 8).

An optional *part filter* — the Φ-consistency test of CEGIS's
``generateCandidate`` — prunes per-output pieces against the current
example states before combination, which is sound because key-groups are
independent.  The filter sees pool expressions as :class:`Column`s looked
up once per pool, and a part object is built only for a combination that
passed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..lang.types import (
    ArrayType,
    JType,
    ListType,
    MapType,
    SetType,
)
from ..ir.nodes import (
    BinOp,
    Const,
    Emit,
    IRExpr,
    MapLambda,
    MapStage,
    OutputBinding,
    Pipeline,
    Proj,
    ReduceLambda,
    ReduceStage,
    Summary,
    TupleExpr,
    Var,
)
from ..lang.analysis.fragments import FragmentAnalysis
from .grammar import (
    ExpressionPools,
    GrammarClass,
    _kind_of_jtype,
    reduce_lambda_pool,
)


@dataclass(frozen=True)
class ScalarPart:
    """A candidate (guard, value, λr) triple for one scalar output."""

    var: str
    guard: Optional[IRExpr]
    value: IRExpr
    reduce_lam: ReduceLambda
    default: object


@dataclass(frozen=True)
class ContainerPart:
    """A candidate (key, value, guard, λr?, finalizer?) for a container."""

    var: str
    key: IRExpr
    value: IRExpr
    guard: Optional[IRExpr]
    reduce_lam: Optional[ReduceLambda]
    finalizer: Optional[tuple[IRExpr, IRExpr]]  # (key expr, value expr) over (k, v)
    container: str
    default: object


class Column:
    """A pool expression and, per Φ state, the id of its evaluated column."""

    __slots__ = ("expr", "ids")

    def __init__(self, expr: Optional[IRExpr], ids: Sequence[int]):
        self.expr = expr
        self.ids = ids


class PartFilter:
    """What the enumerator prunes parts with; this base accepts every part.

    :class:`repro.synthesis.cegis.PartEvaluator` is the Φ-consistency test.
    """

    def columns(self, exprs: Sequence[Optional[IRExpr]]) -> list[Column]:
        """One :class:`Column` per expression (None: no guard / no key)."""
        return [Column(expr, ()) for expr in exprs]

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
        """The ``values`` that make an acceptable part with the rest, in order."""
        return iter(values)


#: Fixed terms of container parts (shared objects: filters key columns by id).
_ELEMENT = Var("__element", "other")
_SET_VALUE = Const(1, "int")
_BAG_KEY = Const(0, "int")


def default_for_type(jtype: JType) -> object:
    kind = _kind_of_jtype(jtype)
    if kind == "double":
        return 0.0
    if kind == "boolean":
        return False
    if kind == "String":
        return None
    return 0


def container_kind(jtype: JType) -> Optional[str]:
    if isinstance(jtype, ArrayType):
        return "array"
    if isinstance(jtype, MapType):
        return "map"
    if isinstance(jtype, SetType):
        return "set"
    if isinstance(jtype, ListType):
        return "bag"
    return None


class CandidateEnumerator:
    """Enumerates Summary candidates for one fragment + grammar class."""

    def __init__(
        self,
        analysis: FragmentAnalysis,
        grammar_class: GrammarClass,
        pools: ExpressionPools,
        part_filter: Optional[PartFilter] = None,
        max_parts_per_output: int = 24,
        max_combinations: int = 400,
    ):
        self.analysis = analysis
        self.grammar_class = grammar_class
        self.pools = pools
        self.part_filter = part_filter or PartFilter()
        self.max_parts_per_output = max_parts_per_output
        self.max_combinations = max_combinations

        self.scalar_outputs: dict[str, JType] = {}
        self.container_outputs: dict[str, JType] = {}
        for name, jtype in analysis.output_vars.items():
            if container_kind(jtype) is None:
                self.scalar_outputs[name] = jtype
            else:
                self.container_outputs[name] = jtype

    # ------------------------------------------------------------------

    def candidates(self) -> Iterator[Summary]:
        """Yield candidate summaries, cheapest shapes first."""
        source = self.analysis.view.sources[0]
        emitted: set[int] = set()

        for shape in self.grammar_class.shapes:
            for summary in self._candidates_for_shape(shape, source):
                marker = hash(summary)
                if marker in emitted:
                    continue
                emitted.add(marker)
                yield summary

    def _candidates_for_shape(self, shape: str, source: str) -> Iterator[Summary]:
        if self.scalar_outputs and self.container_outputs:
            return iter(())  # mixed outputs: not expressible in one pipeline
        if self.scalar_outputs:
            if shape != "mr":
                return iter(())
            chained: list[Iterator[Summary]] = []
            # Separate-keyed emits need one emit per output (the class's
            # emit bound); tuple packing needs the tuple-width bound —
            # exactly the features that define the hierarchy (§4.2).
            if len(self.scalar_outputs) <= self.grammar_class.max_emits:
                chained.append(self._scalar_candidates(source))
            if 2 <= len(self.scalar_outputs) <= self.grammar_class.max_tuple:
                chained.append(self._tuple_candidates(source))
            return itertools.chain(*chained)
        if self.container_outputs:
            return self._container_candidates(shape, source)
        return iter(())

    # ------------------------------------------------------------------
    # Scalar outputs: one guarded emit per output, shared λr

    def _scalar_parts(self, var: str, jtype: JType) -> list[ScalarPart]:
        kind = _kind_of_jtype(jtype)
        passing = self.part_filter.passing
        values = self.part_filter.columns(self.pools.pool_for(kind))
        guards = self._guard_columns(16)
        no_key = guards[0]
        reduce_ops = reduce_lambda_pool(
            kind, self.analysis.scan.operators, self.analysis.scan.methods
        )
        default = self.analysis.prelude_constants.get(var, default_for_type(jtype))
        parts: list[ScalarPart] = []
        for reduce_lam in reduce_ops:
            for guard in guards:
                for value in passing(
                    var, None, default, reduce_lam, None, guard, no_key, values
                ):
                    parts.append(
                        ScalarPart(var, guard.expr, value.expr, reduce_lam, default)
                    )
                    if len(parts) >= self.max_parts_per_output:
                        return parts
        return parts

    def _guard_columns(self, limit: int) -> list[Column]:
        """The absent guard first, then the class's boolean pool (capped)."""
        guards: list[Optional[IRExpr]] = [None]
        if self.grammar_class.allow_guards:
            guards.extend(self.pools.pool_for("boolean")[:limit])
        return self.part_filter.columns(guards)

    def _scalar_candidates(self, source: str) -> Iterator[Summary]:
        per_output: list[list[ScalarPart]] = []
        for var, jtype in self.scalar_outputs.items():
            parts = self._scalar_parts(var, jtype)
            if not parts:
                return
            per_output.append(parts)

        normal_key = self.pools.normal_keys.key
        count = 0
        for combo in _sum_ordered_product(per_output, self.max_combinations):
            # All parts must share one λr (a pipeline has a single reduce).
            lam_keys = {normal_key(p.reduce_lam.body) for p in combo}
            if len(lam_keys) != 1:
                continue
            params = tuple(self.analysis.view.field_names)
            emits = tuple(
                Emit(key=Const(p.var, "String"), value=p.value, cond=p.guard)
                for p in combo
            )
            stages = (
                MapStage(MapLambda(params, emits)),
                ReduceStage(combo[0].reduce_lam),
            )
            outputs = tuple(
                OutputBinding(
                    var=p.var,
                    kind="keyed",
                    key=Const(p.var, "String"),
                    default=p.default,
                )
                for p in combo
            )
            yield Summary(Pipeline(source, stages), outputs)
            count += 1
            if count >= self.max_combinations:
                return

    # ------------------------------------------------------------------
    # Tuple-packed scalars: one emit, tuple value, componentwise λr

    def _tuple_candidates(self, source: str) -> Iterator[Summary]:
        names = list(self.scalar_outputs)
        if not 2 <= len(names) <= self.grammar_class.max_tuple:
            return
        component_parts: list[list[ScalarPart]] = []
        for var, jtype in self.scalar_outputs.items():
            parts = self._scalar_parts(var, jtype)
            if not parts:
                return
            component_parts.append(parts)

        normal_key = self.pools.normal_keys.key
        count = 0
        for combo in _sum_ordered_product(component_parts, self.max_combinations):
            # A shared (possibly absent) guard is required for one emit.
            guard_keys = {
                normal_key(p.guard) if p.guard is not None else None for p in combo
            }
            if len(guard_keys) != 1:
                continue
            guard = combo[0].guard
            value = TupleExpr(tuple(p.value for p in combo))
            v1, v2 = Var("v1", "tuple"), Var("v2", "tuple")
            body = TupleExpr(
                tuple(
                    _apply_reduce(p.reduce_lam, Proj(v1, i), Proj(v2, i))
                    for i, p in enumerate(combo)
                )
            )
            params = tuple(self.analysis.view.field_names)
            stages = (
                MapStage(
                    MapLambda(
                        params,
                        (Emit(key=Const("__t", "String"), value=value, cond=guard),),
                    )
                ),
                ReduceStage(ReduceLambda(body)),
            )
            outputs = tuple(
                OutputBinding(
                    var=p.var,
                    kind="keyed",
                    key=Const("__t", "String"),
                    default=p.default,
                    project=i,
                )
                for i, p in enumerate(combo)
            )
            yield Summary(Pipeline(source, stages), outputs)
            count += 1
            if count >= self.max_combinations // 4:
                return

    # ------------------------------------------------------------------
    # Container outputs

    def _container_parts(
        self, var: str, jtype: JType, shape: str
    ) -> list[ContainerPart]:
        container = container_kind(jtype)
        assert container is not None
        element_type = _container_element_type(jtype)
        kind = _kind_of_jtype(element_type)
        values = self.pools.pool_for(kind if kind != "other" else "int")
        if kind == "other" or (
            self.analysis.view.element_class is not None and container in ("bag", "set")
        ):
            # Pass-through of the whole input element (selection shapes).
            values = [_ELEMENT, *values]
        keys = self.pools.key_pool()
        if container == "set" and kind == "other":
            keys = [_ELEMENT, *keys]
        reduce_ops: list[Optional[ReduceLambda]] = [None]
        finalizers: list[Optional[tuple[IRExpr, IRExpr]]] = [None]
        default = None
        if container == "set":
            # Sets: the *key* is the element; value is a placeholder.
            values = [_SET_VALUE]
        elif container == "bag":
            # Bags: values in pipeline order under a placeholder key.
            keys = [_BAG_KEY]
        else:
            if shape != "m":
                reduce_ops = list(
                    reduce_lambda_pool(
                        kind if kind != "other" else "int",
                        self.analysis.scan.operators,
                        self.analysis.scan.methods,
                    )
                )
            if shape == "mrm":
                finalizers = list(self._finalizer_pool())  # mrm must use its final stage
            if container == "array":
                default = default_for_type(element_type)

        passing = self.part_filter.passing
        value_columns = self.part_filter.columns(values)
        key_columns = self.part_filter.columns(keys)
        guards = self._guard_columns(12)
        parts: list[ContainerPart] = []
        for reduce_lam in reduce_ops:
            for finalizer in finalizers:
                for guard in guards:
                    for key in key_columns:
                        for value in passing(
                            var,
                            container,
                            default,
                            reduce_lam,
                            finalizer,
                            guard,
                            key,
                            value_columns,
                        ):
                            parts.append(
                                ContainerPart(
                                    var,
                                    key.expr,
                                    value.expr,
                                    guard.expr,
                                    reduce_lam,
                                    finalizer,
                                    container,
                                    default,
                                )
                            )
                            if len(parts) >= self.max_parts_per_output:
                                return parts
        return parts

    def _finalizer_pool(self) -> list[tuple[IRExpr, IRExpr]]:
        """Final-stage (key, value) candidates over params (k, v)."""
        v = Var("v", "double")
        k = Var("k", "int")
        results: list[tuple[IRExpr, IRExpr]] = []
        scalars: list[IRExpr] = []
        for name, jtype in self.analysis.input_vars.items():
            kind = _kind_of_jtype(jtype)
            if kind in ("int", "double") and name not in self.analysis.view.sources:
                scalars.append(Var(name, kind))
        for value, jtype in self.analysis.scan.constants:
            kind = _kind_of_jtype(jtype)
            if kind in ("int", "double") and value not in (0, 0.0):
                scalars.append(Const(value, kind))
        for scalar in scalars:
            for op in ("/", "*", "-", "+"):
                if op in self.analysis.scan.operators:
                    results.append((k, BinOp(op, v, scalar)))
        results.append((k, v))
        return results

    def _container_candidates(self, shape: str, source: str) -> Iterator[Summary]:
        per_output: list[list[ContainerPart]] = []
        for var, jtype in self.container_outputs.items():
            parts = self._container_parts(var, jtype, shape)
            if not parts:
                return
            per_output.append(parts)

        count = 0
        for combo in _sum_ordered_product(per_output, self.max_combinations):
            if len(combo) > 1:
                # Multiple containers share one pipeline only with same λr
                # and finalizer — rare; require singletons for now.
                continue
            part = combo[0]
            params = tuple(self.analysis.view.field_names)
            if part.container == "set":
                emits = (Emit(key=part.key, value=Const(1, "int"), cond=part.guard),)
            else:
                emits = (Emit(key=part.key, value=part.value, cond=part.guard),)
            stages: list = [MapStage(MapLambda(params, emits))]
            if part.reduce_lam is not None:
                stages.append(ReduceStage(part.reduce_lam))
            if part.finalizer is not None:
                fin_key, fin_value = part.finalizer
                stages.append(
                    MapStage(
                        MapLambda(("k", "v"), (Emit(key=fin_key, value=fin_value),))
                    )
                )
            binding = OutputBinding(
                var=part.var,
                kind="whole",
                container=part.container,
                default=part.default,
            )
            yield Summary(Pipeline(source, tuple(stages)), (binding,))
            count += 1
            if count >= self.max_combinations:
                return


def _apply_reduce(lam: ReduceLambda, left: IRExpr, right: IRExpr) -> IRExpr:
    from ..verification.algebra import substitute

    return substitute(lam.body, {lam.params[0]: left, lam.params[1]: right})


def _container_element_type(jtype: JType) -> JType:
    if isinstance(jtype, ArrayType):
        return jtype.element
    if isinstance(jtype, ListType):
        return jtype.element
    if isinstance(jtype, SetType):
        return jtype.element
    if isinstance(jtype, MapType):
        return jtype.value
    return jtype


def _sum_ordered_product(pools: list[list], cap: int) -> Iterator[tuple]:
    """Cartesian product ordered by total index sum (cheap combos first)."""
    if not pools:
        return
    if len(pools) == 1:
        for item in pools[0]:
            yield (item,)
        return
    sizes = [len(p) for p in pools]
    max_sum = sum(s - 1 for s in sizes)
    emitted = 0
    for total in range(max_sum + 1):
        for combo_indices in _compositions(total, sizes):
            yield tuple(pool[i] for pool, i in zip(pools, combo_indices))
            emitted += 1
            if emitted >= cap:
                return


def _compositions(total: int, sizes: list[int]) -> Iterator[tuple[int, ...]]:
    """All index tuples with the given sum, each bounded by its pool size."""
    if len(sizes) == 1:
        if total < sizes[0]:
            yield (total,)
        return
    for first in range(min(total, sizes[0] - 1) + 1):
        for rest in _compositions(total - first, sizes[1:]):
            yield (first, *rest)

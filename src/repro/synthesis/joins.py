"""Candidate enumeration for the JOIN grammar classes.

A join summary has the stage shape ``m j (m j)* m r?`` over the base
relation:

* the first map keys each base element by a join-key field and emits the
  *whole element* as a field tuple (a pure restructuring — no data is
  dropped before the join);
* each :class:`~repro.ir.nodes.JoinStage` carries the inner relation's
  pipeline (one map stage keying its elements the same way);
* between joins, a re-key map stage re-addresses the accumulated nested
  value tuple by the next level's key (the value passes through
  unchanged);
* the post-join map stage computes the fragment's outputs from *paths*
  into the nested value tuple (``v[0][0]`` is the base element, ``v[1]``
  the last-joined element, ...), optionally guarded by residual
  conditions; a final reduce folds per-key values for aggregates.

Candidates are generated per valid join *ordering* (§7.4: a star-shaped
nest admits several), round-robin across orderings so that each
ordering's cheapest candidates reach the verifier early and the search
can keep one verified summary per ordering for the runtime monitor to
choose between.

Expression candidates come from the fragment-specialized pools (the
harvested accumulation terms and residual conditions of the innermost
body), written over the relations' field atoms and then *substituted*
into tuple-path space — so the search space stays exactly as
fragment-specialized as the flat grammar's.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..ir.nodes import (
    Const,
    Emit,
    IRExpr,
    JoinStage,
    MapLambda,
    MapStage,
    OutputBinding,
    Pipeline,
    Proj,
    ReduceLambda,
    ReduceStage,
    Stage,
    Summary,
    Var,
    is_join_summary,
)
from ..lang.analysis.fragments import FragmentAnalysis
from ..lang.analysis.joins import JoinInfo
from ..verification.algebra import substitute
from .enumerator import (
    _container_element_type,
    container_kind,
    default_for_type,
    get_or_default_start,
)
from .grammar import ExpressionPools, GrammarClass, _kind_of_jtype, reduce_lambda_pool

__all__ = ["JoinCandidateEnumerator", "is_join_summary"]


class JoinCandidateEnumerator:
    """Enumerates join Summary candidates for one fragment + class."""

    def __init__(
        self,
        analysis: FragmentAnalysis,
        grammar_class: GrammarClass,
        pools: ExpressionPools,
        max_values: int = 20,
        max_guards: int = 8,
        max_keys: int = 8,
        max_per_ordering: int = 200,
    ):
        assert analysis.join is not None
        self.analysis = analysis
        self.join: JoinInfo = analysis.join
        self.grammar_class = grammar_class
        self.pools = pools
        self.max_values = max_values
        self.max_guards = max_guards
        self.max_keys = max_keys
        self.max_per_ordering = max_per_ordering

        self._field_kinds: dict[str, str] = {}
        for side in self.join.sides:
            for fld in side.fields:
                self._field_kinds[fld.name] = _kind_of_jtype(fld.jtype)

    # ------------------------------------------------------------------

    def candidates(self) -> Iterator[Summary]:
        """Round-robin the per-ordering candidate streams."""
        streams = [
            self._candidates_for_ordering(perm)
            for perm in self.join.orderings()
        ]
        while streams:
            exhausted = []
            for stream in streams:
                try:
                    yield next(stream)
                except StopIteration:
                    exhausted.append(stream)
            streams = [s for s in streams if s not in exhausted]

    # ------------------------------------------------------------------
    # Pipeline skeleton for one ordering

    def _field_var(self, name: str) -> Var:
        return Var(name, self._field_kinds.get(name, "int"))

    def _side_tuple(self, side) -> IRExpr:
        from ..ir.nodes import TupleExpr

        return TupleExpr(tuple(self._field_var(f.name) for f in side.fields))

    @staticmethod
    def _tuple_path(position: int, depth: int) -> IRExpr:
        """Path of relation ``position``'s tuple inside the value after
        ``depth`` joins (value nests left: ``(((t0, t1), t2), ...)``)."""
        expr: IRExpr = Var("v", "tuple")
        if depth == 0:
            return expr
        if position == 0:
            for _ in range(depth):
                expr = Proj(expr, 0)
            return expr
        for _ in range(depth - position):
            expr = Proj(expr, 0)
        return Proj(expr, 1)

    def _skeleton(
        self, perm: tuple[int, ...]
    ) -> Optional[tuple[list[Stage], dict[str, IRExpr]]]:
        """Stages up to (not including) the post-join map, plus the
        field → tuple-path substitution map at the post-join point."""
        join = self.join
        base = join.base
        ordered = [join.levels[i] for i in perm]
        # Relation position in join order: base 0, then 1..L.
        position = {base.source: 0}
        for offset, level in enumerate(ordered):
            position[level.side.source] = offset + 1

        first = ordered[0]
        if first.left_owner != base.source:
            return None
        stages: list[Stage] = [
            MapStage(
                MapLambda(
                    params=tuple(f.name for f in base.fields),
                    emits=(
                        Emit(
                            key=self._field_var(first.left_key),
                            value=self._side_tuple(base),
                        ),
                    ),
                )
            )
        ]
        for depth, level in enumerate(ordered):
            side = level.side
            right = Pipeline(
                side.source,
                (
                    MapStage(
                        MapLambda(
                            params=tuple(f.name for f in side.fields),
                            emits=(
                                Emit(
                                    key=self._field_var(level.right_key),
                                    value=self._side_tuple(side),
                                ),
                            ),
                        )
                    ),
                ),
            )
            if depth > 0:
                # Re-key the accumulated tuple by this level's left key.
                owner_pos = position[level.left_owner]
                if owner_pos > depth:
                    return None  # key owner not joined yet
                owner = join.side_for(level.left_owner)
                index = owner.field_names.index(level.left_key)
                key_path = Proj(self._tuple_path(owner_pos, depth), index)
                stages.append(
                    MapStage(
                        MapLambda(
                            params=("k", "v"),
                            emits=(Emit(key=key_path, value=Var("v", "tuple")),),
                        )
                    )
                )
            stages.append(JoinStage(right))
        depth = len(ordered)
        mapping: dict[str, IRExpr] = {}
        for side in join.sides:
            tuple_path = self._tuple_path(position[side.source], depth)
            for index, fld in enumerate(side.fields):
                mapping[fld.name] = Proj(tuple_path, index)
        return stages, mapping

    # ------------------------------------------------------------------

    def _value_pool(self, kind: str) -> list[IRExpr]:
        return self.pools.pool_for(kind if kind != "other" else "int")[
            : self.max_values
        ]

    def _guard_pool(self) -> list[Optional[IRExpr]]:
        guards: list[Optional[IRExpr]] = [None]
        if self.grammar_class.allow_guards:
            guards.extend(self.pools.pool_for("boolean")[: self.max_guards])
        return guards

    def _candidates_for_ordering(self, perm: tuple[int, ...]) -> Iterator[Summary]:
        built = self._skeleton(perm)
        if built is None:
            return
        stages, mapping = built

        scalar_outputs = {
            name: jtype
            for name, jtype in self.analysis.output_vars.items()
            if container_kind(jtype) is None
        }
        container_outputs = {
            name: jtype
            for name, jtype in self.analysis.output_vars.items()
            if container_kind(jtype) is not None
        }
        if scalar_outputs and container_outputs:
            return  # mixed outputs: not expressible in one pipeline
        count = 0
        if scalar_outputs:
            gen = self._scalar_candidates(stages, mapping, scalar_outputs)
        elif len(container_outputs) == 1:
            (var, jtype), = container_outputs.items()
            gen = self._container_candidates(stages, mapping, var, jtype)
        else:
            return
        for summary in gen:
            yield summary
            count += 1
            if count >= self.max_per_ordering:
                return

    def _scalar_candidates(
        self, stages: list[Stage], mapping: dict[str, IRExpr], outputs
    ) -> Iterator[Summary]:
        """All scalar outputs as separately-keyed emits with one λr."""
        if "mjmr" not in self.grammar_class.shapes:
            return
        if len(outputs) > self.grammar_class.max_emits:
            return
        names = list(outputs)
        reduce_ops = reduce_lambda_pool(
            _kind_of_jtype(outputs[names[0]]),
            self.analysis.scan.operators,
            self.analysis.scan.methods,
        )
        per_output: dict[str, list[tuple[Optional[IRExpr], IRExpr]]] = {}
        for var, jtype in outputs.items():
            kind = _kind_of_jtype(jtype)
            pairs = [
                (guard, value)
                for guard in self._guard_pool()
                for value in self._value_pool(kind)
            ]
            per_output[var] = pairs
        # Sum-ordered combination: cheap (harvested-first) parts first.
        for reduce_lam in reduce_ops:
            for total in range(
                sum(len(per_output[v]) - 1 for v in names) + 1
            ):
                for combo in _compositions_for(total, [len(per_output[v]) for v in names]):
                    emits = []
                    bindings = []
                    for var, index in zip(names, combo):
                        guard, value = per_output[var][index]
                        emits.append(
                            Emit(
                                key=Const(var, "String"),
                                value=substitute(value, mapping),
                                cond=(
                                    substitute(guard, mapping)
                                    if guard is not None
                                    else None
                                ),
                            )
                        )
                        bindings.append(
                            OutputBinding(
                                var=var,
                                kind="keyed",
                                key=Const(var, "String"),
                                default=self.analysis.prelude_constants.get(
                                    var, default_for_type(outputs[var])
                                ),
                            )
                        )
                    post = MapStage(MapLambda(("k", "v"), tuple(emits)))
                    yield Summary(
                        Pipeline(
                            self.join.base.source,
                            tuple([*stages, post, ReduceStage(reduce_lam)]),
                        ),
                        tuple(bindings),
                    )

    def _container_candidates(
        self, stages: list[Stage], mapping: dict[str, IRExpr], var: str, jtype
    ) -> Iterator[Summary]:
        """A single map/set container output built from the joined pairs.

        Bags and arrays are deliberately out of the join space: a bag's
        element order depends on the physical join strategy, and array
        outputs keyed by joined data values have no bounded index.
        """
        container = container_kind(jtype)
        if container not in ("map", "set"):
            return
        element_type = _container_element_type(jtype)
        kind = _kind_of_jtype(element_type)
        keys = self.pools.key_pool()[: self.max_keys]
        values = self._value_pool(kind if kind != "other" else "int")
        guards = self._guard_pool()
        binding = OutputBinding(
            var=var,
            kind="whole",
            container=container,
            default=(
                get_or_default_start(self.analysis, var) if container == "map" else None
            ),
        )

        if container == "set":
            if "mjm" not in self.grammar_class.shapes:
                return
            for guard in guards:
                for key in keys:
                    post = MapStage(
                        MapLambda(
                            ("k", "v"),
                            (
                                Emit(
                                    key=substitute(key, mapping),
                                    value=Const(1, "int"),
                                    cond=(
                                        substitute(guard, mapping)
                                        if guard is not None
                                        else None
                                    ),
                                ),
                            ),
                        )
                    )
                    yield Summary(
                        Pipeline(
                            self.join.base.source, tuple([*stages, post])
                        ),
                        (binding,),
                    )
            return

        reduce_ops: list[Optional[ReduceLambda]] = []
        if "mjmr" in self.grammar_class.shapes:
            reduce_ops.extend(
                reduce_lambda_pool(
                    kind if kind != "other" else "int",
                    self.analysis.scan.operators,
                    self.analysis.scan.methods,
                )
            )
        if "mjm" in self.grammar_class.shapes:
            reduce_ops.append(None)  # last-write-wins put
        for reduce_lam in reduce_ops:
            for guard in guards:
                for key in keys:
                    for value in values:
                        post = MapStage(
                            MapLambda(
                                ("k", "v"),
                                (
                                    Emit(
                                        key=substitute(key, mapping),
                                        value=substitute(value, mapping),
                                        cond=(
                                            substitute(guard, mapping)
                                            if guard is not None
                                            else None
                                        ),
                                    ),
                                ),
                            )
                        )
                        tail: list[Stage] = [post]
                        if reduce_lam is not None:
                            tail.append(ReduceStage(reduce_lam))
                        yield Summary(
                            Pipeline(
                                self.join.base.source,
                                tuple([*stages, *tail]),
                            ),
                            (binding,),
                        )


def _compositions_for(total: int, sizes: list[int]) -> Iterator[tuple[int, ...]]:
    """Index tuples with the given sum, bounded per pool (cheap-first)."""
    if len(sizes) == 1:
        if total < sizes[0]:
            yield (total,)
        return
    for first in range(min(total, sizes[0] - 1) + 1):
        for rest in _compositions_for(total - first, sizes[1:]):
            yield (first, *rest)

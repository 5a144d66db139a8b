"""Casper's data-centric cost model (paper section 5.1, Eqns 2-4).

Costs estimate *data transfer*, not compute:

* ``costm(λm, N, Wm) = Wm · N · Σᵢ sizeof(emitᵢ) · pᵢ``
* ``costr(λr, N, Wr) = Wr · N · sizeof(λr) · ϵ(λr)`` where ϵ is 1 for a
  commutative-associative λr and the penalty ``Wcsg`` otherwise
* ``costj = Wj · N₁ · N₂ · sizeof(emit) · pⱼ``

with weights Wm=1, Wr=2, Wj=2, Wcsg=50 (the paper's empirical values).
Costs are symbolic in the dataset size N and in the unknown emit
probabilities pᵢ / distinct-key ratios kᵢ; the runtime monitor substitutes
sampled estimates (section 5.2), while static pruning compares bounds over
the unknowns' [0, 1] ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine.sizes import TUPLE_HEADER, sizeof_kind
from ..ir.nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    IRExpr,
    JoinStage,
    MapStage,
    Pipeline,
    Proj,
    ReduceStage,
    Summary,
    TupleExpr,
    UnOp,
    Var,
)


@dataclass(frozen=True)
class CostWeights:
    """The paper's weight constants."""

    wm: float = 1.0
    wr: float = 2.0
    wj: float = 2.0
    wcsg: float = 50.0


@dataclass(frozen=True)
class CostTerm:
    """coeff · base · Π(symbols); base is "N" or "N2" (join fan-out)."""

    coeff: float
    symbols: tuple[str, ...] = ()
    base: str = "N"


@dataclass
class CostExpr:
    """A sum of cost terms, linear in the input size N."""

    terms: list[CostTerm] = field(default_factory=list)

    def add(self, coeff: float, symbols: tuple[str, ...] = (), base: str = "N") -> None:
        if coeff:
            self.terms.append(CostTerm(coeff, tuple(sorted(symbols)), base))

    def evaluate(self, estimates: Optional[dict[str, float]] = None) -> float:
        """Per-record cost: substitute unknowns, N = 1 (and N₂ = N for
        join terms).  Unknown symbols default to 1 (the conservative
        upper bound).
        """
        estimates = estimates or {}
        total = 0.0
        for term in self.terms:
            value = term.coeff
            for symbol in term.symbols:
                value *= estimates.get(symbol, 1.0)
            total += value
        return total

    def upper_bound(self) -> float:
        return self.evaluate({})

    def lower_bound(self) -> float:
        """All unknown probabilities/ratios at 0."""
        total = 0.0
        for term in self.terms:
            if term.symbols:
                continue
            total += term.coeff
        return total

    @property
    def unknowns(self) -> set[str]:
        return {s for term in self.terms for s in term.symbols}

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for term in self.terms:
            text = f"{term.coeff:g}"
            for symbol in term.symbols:
                text += f"·{symbol}"
            text += f"·{term.base}"
            parts.append(text)
        return " + ".join(parts)


def expr_static_size(expr: IRExpr) -> int:
    """Static serialized size of an IR expression's value (bytes)."""
    if isinstance(expr, Const):
        return sizeof_kind(expr.kind)
    if isinstance(expr, Var):
        return sizeof_kind(expr.kind)
    if isinstance(expr, TupleExpr):
        return TUPLE_HEADER + sum(expr_static_size(item) for item in expr.items)
    if isinstance(expr, BinOp):
        if expr.op in ("&&", "||", "<", "<=", ">", ">=", "==", "!="):
            return sizeof_kind("boolean")
        return max(expr_static_size(expr.left), expr_static_size(expr.right))
    if isinstance(expr, UnOp):
        return sizeof_kind("boolean") if expr.op == "!" else expr_static_size(expr.operand)
    if isinstance(expr, Cond):
        return max(expr_static_size(expr.then), expr_static_size(expr.other))
    if isinstance(expr, Proj):
        return sizeof_kind("double")
    if isinstance(expr, CallFn):
        if expr.name in ("date_before", "date_after", "str_contains", "str_starts"):
            return sizeof_kind("boolean")
        return sizeof_kind("double")
    return sizeof_kind("double")


@dataclass
class CostModel:
    """Computes symbolic costs of program summaries."""

    weights: CostWeights = field(default_factory=CostWeights)

    # ------------------------------------------------------------------

    def summary_cost(
        self,
        summary: Summary,
        commutative_associative: bool = True,
    ) -> CostExpr:
        """Total cost of a summary's pipeline (Eqn composition, §5.1)."""
        cost = CostExpr()
        epsilon = 1.0 if commutative_associative else self.weights.wcsg
        self._pipeline_cost(summary.pipeline, cost, prefix="s", reduce_epsilon=epsilon)
        return cost

    @staticmethod
    def _key_size(key_expr: IRExpr) -> int:
        """Size of an emitted key on the wire.

        Constant keys are routing tokens: a single-constant-key reduction
        is generated as a global ``reduce`` (no per-record key is
        shipped), matching the paper's costing of StringMatch solution
        (b) at 28 bytes per record (Fig. 8(d)).
        """
        if isinstance(key_expr, Const):
            return 0
        return expr_static_size(key_expr)

    def _pipeline_cost(
        self,
        pipeline: Pipeline,
        cost: CostExpr,
        prefix: str,
        reduce_epsilon: float = 1.0,
    ) -> list[tuple[float, tuple[str, ...], int]]:
        """Accumulate stage costs; returns the record-count expression.

        The count is a list of (coeff, symbols, pair_size) entries,
        implicitly × N — pair sizes flow into downstream reduce costs
        (the paper charges λr at the full key-value record size).
        """
        count: list[tuple[float, tuple[str, ...], int]] = [(1.0, (), 0)]
        for index, stage in enumerate(pipeline.stages):
            if isinstance(stage, MapStage):
                out_count: list[tuple[float, tuple[str, ...], int]] = []
                for emit_index, emit in enumerate(stage.lam.emits):
                    pair_size = self._key_size(emit.key) + expr_static_size(emit.value)
                    symbols: tuple[str, ...] = ()
                    if emit.cond is not None:
                        symbols = (f"p_{prefix}{index}_{emit_index}",)
                    for coeff, in_syms, _size in count:
                        cost.add(
                            self.weights.wm * pair_size * coeff,
                            in_syms + symbols,
                        )
                        out_count.append((coeff, in_syms + symbols, pair_size))
                count = out_count
            elif isinstance(stage, ReduceStage):
                for coeff, in_syms, pair_size in count:
                    cost.add(
                        self.weights.wr * pair_size * reduce_epsilon * coeff,
                        in_syms,
                    )
                # Output: one pair per distinct key — ratio symbol k.
                out_size = max((size for _c, _s, size in count), default=0)
                count = [(1.0, (f"k_{prefix}{index}",), out_size)]
            elif isinstance(stage, JoinStage):
                self._pipeline_cost(
                    stage.right, cost, prefix=f"{prefix}{index}r", reduce_epsilon=reduce_epsilon
                )
                pair_size = 2 * sizeof_kind("double") + TUPLE_HEADER
                join_p = (f"p_{prefix}{index}_j",)
                for coeff, in_syms, _size in count:
                    cost.add(
                        self.weights.wj * pair_size * coeff,
                        in_syms + join_p,
                        base="N2",
                    )
                count = [
                    (coeff, in_syms + join_p, pair_size)
                    for coeff, in_syms, _size in count
                ][:1] or [(1.0, join_p, pair_size)]
        return count

    # ------------------------------------------------------------------

    @staticmethod
    def prune_dominated(
        costed: list[tuple[object, CostExpr]],
    ) -> list[tuple[object, CostExpr]]:
        """Drop summaries whose cost is dominated for *all* distributions.

        Summary a dominates b when a's upper bound (every unknown at 1) is
        at most b's lower bound (every unknown at 0) — then no data
        distribution can make b cheaper (how Fig. 8's solution (a) is
        disqualified at compile time).
        """
        survivors: list[tuple[object, CostExpr]] = []
        for i, (item, cost) in enumerate(costed):
            dominated = False
            for j, (_, other) in enumerate(costed):
                if i == j:
                    continue
                if other.upper_bound() < cost.lower_bound() or (
                    other.upper_bound() == cost.lower_bound()
                    and not other.unknowns
                    and not cost.unknowns
                    and j < i
                ):
                    dominated = True
                    break
            if not dominated:
                survivors.append((item, cost))
        return survivors

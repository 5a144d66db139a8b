"""IR node definitions for program summaries (paper Fig. 3 + Appendix B).

A *program summary* (PS) expresses the final value of every output variable
of a code fragment as a pipeline of ``map`` / ``reduce`` / ``join``
operations over the input dataset.  All nodes are immutable and hashable so
that failed candidates can be blocked from regeneration (the Ω set of the
search algorithm, paper section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Union


# ----------------------------------------------------------------------
# Expressions


class IRExpr:
    """Base class of IR expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(IRExpr):
    """A literal constant.  ``kind`` is int/double/boolean/String."""

    value: Any
    kind: str = "int"

    def __str__(self) -> str:
        if self.kind == "String":
            return repr(self.value)
        if self.kind == "boolean":
            return "true" if self.value else "false"
        return str(self.value)


@dataclass(frozen=True)
class Var(IRExpr):
    """A variable: λ parameter, dataset element atom, or broadcast input."""

    name: str
    kind: str = "int"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(IRExpr):
    """Binary operation with Java semantics (int division truncates)."""

    op: str
    left: IRExpr
    right: IRExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(IRExpr):
    """Unary negation / logical not."""

    op: str
    operand: IRExpr

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True)
class Cond(IRExpr):
    """Conditional expression ``if c then a else b``."""

    cond: IRExpr
    then: IRExpr
    other: IRExpr

    def __str__(self) -> str:
        return f"(if {self.cond} then {self.then} else {self.other})"


@dataclass(frozen=True)
class TupleExpr(IRExpr):
    """Tuple construction ``(e1, e2, ...)``."""

    items: tuple[IRExpr, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.items)
        return f"({inner})"


@dataclass(frozen=True)
class Proj(IRExpr):
    """Tuple projection ``t[i]`` (paper writes ``v.0`` / ``t1[0]``)."""

    base: IRExpr
    index: int

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class CallFn(IRExpr):
    """Library-method application (abs, min, max, sqrt, date_before...)."""

    name: str
    args: tuple[IRExpr, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# ----------------------------------------------------------------------
# Transformer functions


@dataclass(frozen=True)
class Emit:
    """One ``emit(key, value)`` statement, optionally guarded (Fig. 3)."""

    key: IRExpr
    value: IRExpr
    cond: Optional[IRExpr] = None

    def __str__(self) -> str:
        base = f"emit({self.key}, {self.value})"
        if self.cond is not None:
            return f"if {self.cond} : {base}"
        return base


@dataclass(frozen=True)
class MapLambda:
    """λm : element → { emits }.

    ``params`` documents the binding environment: for the first map stage
    these are the dataset element atoms; for later map stages they are
    ``("k", "v")`` binding the incoming key-value pair.
    """

    params: tuple[str, ...]
    emits: tuple[Emit, ...]

    def __str__(self) -> str:
        inner = "; ".join(str(e) for e in self.emits)
        args = ", ".join(self.params)
        return f"λ({args}) → [{inner}]"


@dataclass(frozen=True)
class ReduceLambda:
    """λr : (v1, v2) → expr — combines two values of a key-group."""

    body: IRExpr
    params: tuple[str, str] = ("v1", "v2")

    def __str__(self) -> str:
        return f"λ({self.params[0]}, {self.params[1]}) → {self.body}"


# ----------------------------------------------------------------------
# Stages and pipelines


class Stage:
    """Base class of pipeline stages."""

    __slots__ = ()


@dataclass(frozen=True)
class MapStage(Stage):
    lam: MapLambda

    def __str__(self) -> str:
        return f"map({self.lam})"


@dataclass(frozen=True)
class ReduceStage(Stage):
    lam: ReduceLambda

    def __str__(self) -> str:
        return f"reduce({self.lam})"


@dataclass(frozen=True)
class Pipeline:
    """A source dataset fed through a sequence of stages."""

    source: str
    stages: tuple[Stage, ...]

    def __str__(self) -> str:
        text = self.source
        for stage in self.stages:
            if isinstance(stage, MapStage):
                text = f"map({text}, {stage.lam})"
            elif isinstance(stage, ReduceStage):
                text = f"reduce({text}, {stage.lam})"
            elif isinstance(stage, JoinStage):
                text = f"join({text}, {stage.right})"
        return text

    @property
    def operation_count(self) -> int:
        count = 0
        for stage in self.stages:
            count += 1
            if isinstance(stage, JoinStage):
                count += stage.right.operation_count
        return count


@dataclass(frozen=True)
class JoinStage(Stage):
    """Join the current pair-multiset with another pipeline's, by key."""

    right: Pipeline

    def __str__(self) -> str:
        return f"join(·, {self.right})"


# ----------------------------------------------------------------------
# Program summaries


@dataclass(frozen=True)
class OutputBinding:
    """How one output variable reads the MR result (PS forms of Fig. 3).

    * ``kind == "whole"`` — ``v = MR``: the result's key/value pairs *are*
      the output (array indexed by key, or a Map/Set).
    * ``kind == "keyed"`` — ``v = MR[key]``: a scalar read from the result
      associative array; ``key`` is an expression over input variables
      (usually a string constant naming the variable).

    ``default`` supplies the value when the key is absent (the output
    variable's value from the fragment prelude, e.g. ``0.0``).  When the
    reduced value is a tuple, ``project`` selects one component (used when
    several scalar outputs share one reduction, as in StringMatch
    solution (b) of Fig. 8).
    """

    var: str
    kind: str
    key: Optional[IRExpr] = None
    default: Any = None
    container: str = "scalar"  # scalar | array | map | set | list
    project: Optional[int] = None


@dataclass(frozen=True)
class Summary:
    """A complete program summary: pipeline + output bindings."""

    pipeline: Pipeline
    outputs: tuple[OutputBinding, ...]

    def __str__(self) -> str:
        bindings = []
        for out in self.outputs:
            if out.kind == "whole":
                bindings.append(f"{out.var} = {self.pipeline}")
            else:
                bindings.append(f"{out.var} = ({self.pipeline})[{out.key}]")
        return " ∧ ".join(bindings)

    @property
    def operation_count(self) -> int:
        return self.pipeline.operation_count


# ----------------------------------------------------------------------
# Traversal helpers


def walk_expr(expr: IRExpr) -> Iterator[IRExpr]:
    """Yield ``expr`` and all sub-expressions (pre-order)."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Cond):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.other)
    elif isinstance(expr, TupleExpr):
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, Proj):
        yield from walk_expr(expr.base)
    elif isinstance(expr, CallFn):
        for arg in expr.args:
            yield from walk_expr(arg)


def expr_vars(expr: IRExpr) -> set[str]:
    """Free variable names of an IR expression."""
    return {node.name for node in walk_expr(expr) if isinstance(node, Var)}


def expr_size(expr: IRExpr) -> int:
    """Number of operator nodes — the expression-length feature (§4.2)."""
    size = 0
    for node in walk_expr(expr):
        if isinstance(node, (BinOp, UnOp, Cond, CallFn)):
            size += 1
    return size


StageLike = Union[MapStage, ReduceStage, JoinStage]


def is_join_summary(summary: Summary) -> bool:
    """Whether a summary's pipeline contains any join stage."""
    return any(isinstance(s, JoinStage) for s in summary.pipeline.stages)


# ----------------------------------------------------------------------
# Serialization (summary-cache round-trip) and alpha renaming
#
# Summaries are serialized to JSON-safe plain data so the compilation
# pipeline's content-addressed cache can persist them (in memory and on
# disk) and rebuild identical ``Summary`` objects later.  Only values a
# summary can actually carry (None/bool/int/float/str) are accepted;
# anything else raises :class:`~repro.errors.IRError` and the caller
# declines to cache.


def _scalar_to_data(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    from ..errors import IRError

    raise IRError(f"value {value!r} is not serializable")


def expr_to_data(expr: IRExpr) -> dict[str, Any]:
    """Serialize an IR expression to JSON-safe plain data."""
    if isinstance(expr, Const):
        return {"t": "const", "value": _scalar_to_data(expr.value), "kind": expr.kind}
    if isinstance(expr, Var):
        return {"t": "var", "name": expr.name, "kind": expr.kind}
    if isinstance(expr, BinOp):
        return {
            "t": "bin",
            "op": expr.op,
            "left": expr_to_data(expr.left),
            "right": expr_to_data(expr.right),
        }
    if isinstance(expr, UnOp):
        return {"t": "un", "op": expr.op, "operand": expr_to_data(expr.operand)}
    if isinstance(expr, Cond):
        return {
            "t": "cond",
            "cond": expr_to_data(expr.cond),
            "then": expr_to_data(expr.then),
            "other": expr_to_data(expr.other),
        }
    if isinstance(expr, TupleExpr):
        return {"t": "tuple", "items": [expr_to_data(i) for i in expr.items]}
    if isinstance(expr, Proj):
        return {"t": "proj", "base": expr_to_data(expr.base), "index": expr.index}
    if isinstance(expr, CallFn):
        return {"t": "call", "name": expr.name, "args": [expr_to_data(a) for a in expr.args]}
    from ..errors import IRError

    raise IRError(f"cannot serialize IR expression {expr!r}")


def expr_from_data(data: dict[str, Any]) -> IRExpr:
    """Rebuild an IR expression from :func:`expr_to_data` output."""
    tag = data["t"]
    if tag == "const":
        return Const(data["value"], data["kind"])
    if tag == "var":
        return Var(data["name"], data["kind"])
    if tag == "bin":
        return BinOp(data["op"], expr_from_data(data["left"]), expr_from_data(data["right"]))
    if tag == "un":
        return UnOp(data["op"], expr_from_data(data["operand"]))
    if tag == "cond":
        return Cond(
            expr_from_data(data["cond"]),
            expr_from_data(data["then"]),
            expr_from_data(data["other"]),
        )
    if tag == "tuple":
        return TupleExpr(tuple(expr_from_data(i) for i in data["items"]))
    if tag == "proj":
        return Proj(expr_from_data(data["base"]), data["index"])
    if tag == "call":
        return CallFn(data["name"], tuple(expr_from_data(a) for a in data["args"]))
    from ..errors import IRError

    raise IRError(f"unknown IR expression tag {tag!r}")


def _emit_to_data(emit: Emit) -> dict[str, Any]:
    return {
        "key": expr_to_data(emit.key),
        "value": expr_to_data(emit.value),
        "cond": expr_to_data(emit.cond) if emit.cond is not None else None,
    }


def _emit_from_data(data: dict[str, Any]) -> Emit:
    return Emit(
        key=expr_from_data(data["key"]),
        value=expr_from_data(data["value"]),
        cond=expr_from_data(data["cond"]) if data["cond"] is not None else None,
    )


def _stage_to_data(stage: Stage) -> dict[str, Any]:
    if isinstance(stage, MapStage):
        return {
            "t": "map",
            "params": list(stage.lam.params),
            "emits": [_emit_to_data(e) for e in stage.lam.emits],
        }
    if isinstance(stage, ReduceStage):
        return {
            "t": "reduce",
            "params": list(stage.lam.params),
            "body": expr_to_data(stage.lam.body),
        }
    if isinstance(stage, JoinStage):
        return {"t": "join", "right": pipeline_to_data(stage.right)}
    from ..errors import IRError

    raise IRError(f"cannot serialize stage {stage!r}")


def _stage_from_data(data: dict[str, Any]) -> Stage:
    tag = data["t"]
    if tag == "map":
        return MapStage(
            MapLambda(
                tuple(data["params"]),
                tuple(_emit_from_data(e) for e in data["emits"]),
            )
        )
    if tag == "reduce":
        return ReduceStage(
            ReduceLambda(expr_from_data(data["body"]), tuple(data["params"]))
        )
    if tag == "join":
        return JoinStage(pipeline_from_data(data["right"]))
    from ..errors import IRError

    raise IRError(f"unknown stage tag {tag!r}")


def pipeline_to_data(pipeline: Pipeline) -> dict[str, Any]:
    return {
        "source": pipeline.source,
        "stages": [_stage_to_data(s) for s in pipeline.stages],
    }


def pipeline_from_data(data: dict[str, Any]) -> Pipeline:
    return Pipeline(
        data["source"], tuple(_stage_from_data(s) for s in data["stages"])
    )


def summary_to_data(summary: Summary) -> dict[str, Any]:
    """Serialize a program summary to JSON-safe plain data."""
    return {
        "pipeline": pipeline_to_data(summary.pipeline),
        "outputs": [
            {
                "var": b.var,
                "kind": b.kind,
                "key": expr_to_data(b.key) if b.key is not None else None,
                "default": _scalar_to_data(b.default),
                "container": b.container,
                "project": b.project,
            }
            for b in summary.outputs
        ],
    }


def summary_from_data(data: dict[str, Any]) -> Summary:
    """Rebuild a program summary from :func:`summary_to_data` output."""
    return Summary(
        pipeline=pipeline_from_data(data["pipeline"]),
        outputs=tuple(
            OutputBinding(
                var=b["var"],
                kind=b["kind"],
                key=expr_from_data(b["key"]) if b["key"] is not None else None,
                default=b["default"],
                container=b["container"],
                project=b["project"],
            )
            for b in data["outputs"]
        ),
    )


def rename_expr(expr: IRExpr, mapping: dict[str, str]) -> IRExpr:
    """Rename free variables of an expression by ``mapping``.

    String constants whose value is a mapped variable name are renamed
    too: the enumerator keys scalar emits with ``Const(var, "String")``,
    so those constants denote variables, not data.  (Fragments where a
    genuine string literal collides with a variable name are excluded
    from the cache by the fingerprint's cacheability guard.)
    """
    if isinstance(expr, Var):
        return Var(mapping.get(expr.name, expr.name), expr.kind)
    if isinstance(expr, Const):
        if expr.kind == "String" and expr.value in mapping:
            return Const(mapping[expr.value], expr.kind)
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rename_expr(expr.left, mapping), rename_expr(expr.right, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, rename_expr(expr.operand, mapping))
    if isinstance(expr, Cond):
        return Cond(
            rename_expr(expr.cond, mapping),
            rename_expr(expr.then, mapping),
            rename_expr(expr.other, mapping),
        )
    if isinstance(expr, TupleExpr):
        return TupleExpr(tuple(rename_expr(i, mapping) for i in expr.items))
    if isinstance(expr, Proj):
        return Proj(rename_expr(expr.base, mapping), expr.index)
    if isinstance(expr, CallFn):
        return CallFn(expr.name, tuple(rename_expr(a, mapping) for a in expr.args))
    return expr


def _rename_stage(stage: Stage, mapping: dict[str, str]) -> Stage:
    if isinstance(stage, MapStage):
        return MapStage(
            MapLambda(
                tuple(mapping.get(p, p) for p in stage.lam.params),
                tuple(
                    Emit(
                        key=rename_expr(e.key, mapping),
                        value=rename_expr(e.value, mapping),
                        cond=rename_expr(e.cond, mapping) if e.cond is not None else None,
                    )
                    for e in stage.lam.emits
                ),
            )
        )
    if isinstance(stage, ReduceStage):
        return ReduceStage(
            ReduceLambda(rename_expr(stage.lam.body, mapping), stage.lam.params)
        )
    if isinstance(stage, JoinStage):
        return JoinStage(_rename_pipeline(stage.right, mapping))
    return stage


def _rename_pipeline(pipeline: Pipeline, mapping: dict[str, str]) -> Pipeline:
    return Pipeline(
        mapping.get(pipeline.source, pipeline.source),
        tuple(_rename_stage(s, mapping) for s in pipeline.stages),
    )


def rename_summary(summary: Summary, mapping: dict[str, str]) -> Summary:
    """Apply a variable renaming to every name a summary mentions.

    Used by the summary cache to store summaries in canonical (alpha-
    renamed) variable space and to rebind cached summaries to the
    variable names of an alpha-equivalent fragment on a hit.
    """
    return Summary(
        pipeline=_rename_pipeline(summary.pipeline, mapping),
        outputs=tuple(
            OutputBinding(
                var=mapping.get(b.var, b.var),
                kind=b.kind,
                key=rename_expr(b.key, mapping) if b.key is not None else None,
                default=b.default,
                container=b.container,
                project=b.project,
            )
            for b in summary.outputs
        ),
    )

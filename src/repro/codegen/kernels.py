"""Compiled batch kernels: IR summaries rendered to real Python source.

This is how the real local engine executes every summary.  A verified
summary's λm/λr is rendered into **generated Python source** — one tight
``for`` loop over a chunk of records, record atoms bound to locals,
expressions inlined — and runs chunk-at-a-time.  Liveness is pushed into
the scan: only atoms the emits actually read are materialized from each
record (dead struct fields and dead parallel-array columns are never
touched).

A summary renders to five kernels, all through one :class:`_Renderer`:

* **row map** — ``(records, emit)``, one ``emit((key, value))`` per
  pair (:func:`render_record_kernel` / :func:`render_pair_kernel`).
  Behind ``map_rows`` / ``map_chunk``: every map stage whose output
  feeds another map stage or leaves the job, and the rerun after a
  vector guard trip.
* **column map** — ``(records) -> (keys, values)``, the same emits as
  two lists (the same renderers, ``columns=True``).  Behind
  ``map_columns``: the last map stage before a shuffle, so the pairs are
  priced, combined and routed as columns and never exist as tuples.
* **reduce** — ``(a, b) -> λr(a, b)`` (:func:`render_reduce_kernel`).
  Behind ``CompiledReduce.__call__``: whoever folds pair by pair
  (tests); rendering it is how a step proves its λr compiles.
* **fold** — ``(keys, values, acc)``, λr inlined into the keyed fold
  loop (:func:`render_fold_kernel`).  Behind ``CompiledReduce.fold``,
  which :func:`repro.engine.columnar.fold_columns` calls for the
  map-side combine, the resident store's reduce and the spilled store's
  partition merge.
* **sampler** — ``(records, right, p, k)``, the runtime monitor's whole
  first-k pass over one pipeline (:func:`render_sampler`): every map
  stage, the reduce bookkeeping and the join probe as straight-line
  loops over the raw record head, writing the §5.2 estimates into ``p``
  and ``k``.  Behind :class:`CompiledSampler`, which
  :meth:`~repro.codegen.base.GeneratedProgram.sample_estimates` runs
  once per implementation per job.

The tree-walking callables of :mod:`repro.codegen.base`
(``RecordMapper`` / ``PairMapper`` / ``ReduceApplier``, one
:func:`~repro.ir.eval.eval_expr` visit per emit per record) are the
semantic reference and nothing else: the oracle the differential tests
compare against (:meth:`~repro.codegen.base.GeneratedProgram.oracle_steps`).
Every real-engine stage, a join pipeline's included, runs a kernel, and
the simulated Spark/Hadoop/Flink backends run nothing of their own.

Semantics are preserved exactly by construction:

* ``/`` and ``%`` call the *same* ``_java_div``/``_java_mod`` helpers
  the evaluator uses (identical truncation and division-by-zero
  :class:`~repro.errors.IRError`);
* modelled library functions are injected from the evaluator's own
  function table, so ``sqrt``/``log``/``round`` edge cases agree;
* ``&&``/``||``/``!`` render through ``bool(...)`` exactly as
  ``eval_expr`` computes them;
* a global the summary reads but the caller never bound raises the
  same ``unbound IR variable`` :class:`~repro.errors.IRError`.

The renderer expresses everything the evaluator evaluates (a non-finite
float constant is injected as a value).  It raises
:class:`~repro.errors.KernelUnsupported` only for IR the evaluator
rejects too — an unknown operator, function or expression type — and
the step builder lets that surface at plan time.

On top of the compiled loop sits an optional numpy fast path, used only
when the typechecked view proves it exact: a single emit over any mix
of int/float/bool columns, with the value (and filter, and key when it
is record-dependent) expression built from ops whose int64/float64
semantics are bit-identical to the evaluator's Python semantics
(``+ - *``, comparisons, ``abs``/``sq``/``sqrt``/``floor``/``ceil``/
``to_double``, boolean combinations, if-then-else).  numpy itself is
imported by the first stage those checks accept, never at module load,
so a job without a vector kernel never loads it.  Int64 arithmetic
is overflow-*guarded*: each op prechecks conservative magnitude bounds
and raises :class:`GuardTrip` instead of wrapping, and float results
containing inf/NaN reject the chunk — either way the compiled row loop
(Python arbitrary-precision ints, genuine inf/NaN propagation) reruns
that chunk, so a guard trip is never silently wrong.  Ops with
divergent error or NaN behavior (``/``, ``%``, ``min``/``max``,
``exp``, ``pow``) are deliberately not vectorized.  Column extraction
and validation live in :mod:`repro.engine.columnar`; extracted arrays
are cached on the chunk so several kernels over one chunk extract
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import CodeType
from typing import Any, Callable, Optional

from ..errors import IRError, KernelUnsupported
from ..ir.eval import _FUNCTIONS, _java_div, _java_mod, eval_expr
from ..ir.nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    Emit,
    IRExpr,
    JoinStage,
    MapStage,
    Pipeline,
    Proj,
    ReduceStage,
    TupleExpr,
    UnOp,
    Var,
    expr_vars,
    walk_expr,
)
from ..engine.columnar import ColumnBlock, ColumnSpec, resolve_columns
from ..lang.analysis.loops import DatasetView


# ----------------------------------------------------------------------
# Source rendering

#: Binary operators rendered as native Python operators (semantics of
#: eval_expr's _BINOPS are the plain operator for these).
_NATIVE_BINOPS = {"+", "-", "*", "==", "!=", "<", "<=", ">", ">="}


@dataclass
class KernelSource:
    """Rendered source plus everything needed to compile it."""

    source: str
    #: IR global name → mangled identifier in the generated source.
    globals: dict[str, str]
    #: Helper identifier → concrete object to inject at compile time.
    helpers: dict[str, Any]


class _Renderer:
    """Renders IR expressions to Python source fragments.

    ``bound`` maps record-atom names to the source expression that
    yields them inside the loop (a local temp or an index into the raw
    record).  Any other variable is assumed to be a summary global: it
    gets a mangled name and is resolved against ``globals_env`` when the
    kernel is compiled (missing → the evaluator's ``unbound IR
    variable`` error).  A kernel of several loops renders each loop
    through its own renderer (its own ``bound``) and passes the first
    as ``parent``, so they all mangle globals and collect helpers into
    one table.
    """

    def __init__(
        self,
        bound: Optional[dict[str, str]] = None,
        parent: Optional["_Renderer"] = None,
    ) -> None:
        self.bound: dict[str, str] = dict(bound or {})
        self.globals: dict[str, str] = parent.globals if parent else {}
        self.helpers: dict[str, Any] = parent.helpers if parent else {}

    def fresh(self) -> str:
        return f"_r{len(self.bound)}"

    def _var(self, name: str) -> str:
        if name in self.bound:
            return self.bound[name]
        if name not in self.globals:
            self.globals[name] = f"_g{len(self.globals)}"
        return self.globals[name]

    def expr(self, e: IRExpr) -> str:
        if isinstance(e, Const):
            value = e.value
            if isinstance(value, float) and not math.isfinite(value):
                # ``inf`` / ``nan`` have no literal: inject the constant.
                alias = f"__const{len(self.helpers)}"
                self.helpers[alias] = value
                return alias
            return repr(value)
        if isinstance(e, Var):
            return self._var(e.name)
        if isinstance(e, BinOp):
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op in _NATIVE_BINOPS:
                return f"({left} {e.op} {right})"
            if e.op == "/":
                self.helpers["__div"] = _java_div
                return f"__div({left}, {right})"
            if e.op == "%":
                self.helpers["__mod"] = _java_mod
                return f"__mod({left}, {right})"
            if e.op == "&&":
                return f"(bool({left}) and bool({right}))"
            if e.op == "||":
                return f"(bool({left}) or bool({right}))"
            raise KernelUnsupported(f"unknown IR operator {e.op!r}")
        if isinstance(e, UnOp):
            operand = self.expr(e.operand)
            if e.op == "-":
                return f"(-{operand})"
            if e.op == "!":
                return f"(not {operand})"
            raise KernelUnsupported(f"unknown unary operator {e.op!r}")
        if isinstance(e, Cond):
            cond = self.expr(e.cond)
            then = self.expr(e.then)
            other = self.expr(e.other)
            return f"(({then}) if ({cond}) else ({other}))"
        if isinstance(e, TupleExpr):
            items = [self.expr(item) for item in e.items]
            if len(items) == 1:
                return f"({items[0]},)"
            return "(" + ", ".join(items) + ")"
        if isinstance(e, Proj):
            return f"({self.expr(e.base)}[{e.index}])"
        if isinstance(e, CallFn):
            if e.name not in _FUNCTIONS:
                raise KernelUnsupported(f"unmodelled IR function {e.name!r}")
            alias = f"__fn_{e.name}"
            self.helpers[alias] = _FUNCTIONS[e.name]
            args = ", ".join(self.expr(arg) for arg in e.args)
            return f"{alias}({args})"
        raise KernelUnsupported(f"unknown IR expression {type(e).__name__}")


def _record_atoms(view: DatasetView) -> set[str]:
    """Every atom name ``record_env`` could bind for this view."""
    if view.kind == "join":
        return _record_atoms(view.sides[0])
    if view.kind == "foreach":
        atoms = {"__element"}
        if view.element_class is not None:
            atoms.update(f.name for f in view.element_fields)
        if view.element_var is not None:
            atoms.add(view.element_var)
        return atoms
    if view.kind == "array1d":
        return {view.index_vars[0], *view.sources}
    if view.kind == "array2d":
        return {view.index_vars[0], view.index_vars[1], "v"}
    raise KernelUnsupported(f"unsupported view kind {view.kind!r}")


def _bind_record(
    view: DatasetView, live: set[str], renderer: _Renderer, lines: list[str]
) -> None:
    """Emit per-record binding lines for the *live* atoms only.

    This is the projection pushdown: a struct field or parallel-array
    column no emit reads is never loaded from the record.
    """
    if view.kind == "join":
        _bind_record(view.sides[0], live, renderer, lines)
        return
    if view.kind == "foreach":
        renderer.bound["__element"] = "__rec"
        if view.element_class is not None:
            fields = [f.name for f in view.element_fields if f.name in live]
            if fields:
                lines.append("        __fields = __rec.fields")
            for name in fields:
                temp = renderer.fresh()
                renderer.bound[name] = temp
                lines.append(f"        {temp} = __fields[{name!r}]")
        if view.element_var is not None:
            renderer.bound[view.element_var] = "__rec"
        return
    if view.kind == "array1d":
        renderer.bound[view.index_vars[0]] = "__rec[0]"
        for position, name in enumerate(view.sources):
            if name in live:
                temp = renderer.fresh()
                renderer.bound[name] = temp
                lines.append(f"        {temp} = __rec[{position + 1}]")
        return
    if view.kind == "array2d":
        i_var, j_var = view.index_vars[0], view.index_vars[1]
        renderer.bound[i_var] = "__rec[0]"
        renderer.bound[j_var] = "__rec[1]"
        renderer.bound["v"] = "__rec[2]"
        return
    raise KernelUnsupported(f"unsupported view kind {view.kind!r}")


def _emit_lines(
    emits: tuple[Emit, ...], renderer: _Renderer, statement: str
) -> list[str]:
    """One (guarded) ``statement`` per emit, its ``{key}`` / ``{value}``
    filled with the rendered expressions."""
    lines: list[str] = []
    for emit in emits:
        emitted = statement.format(
            key=renderer.expr(emit.key), value=renderer.expr(emit.value)
        )
        if emit.cond is not None:
            lines.append(f"        if {renderer.expr(emit.cond)}:")
            lines.append(f"            {emitted}")
        else:
            lines.append(f"        {emitted}")
    return lines


def int_constant(emits: tuple[Emit, ...]) -> Optional[int]:
    """The value of every pair a stage emits, when that is one exact-int
    literal: a lone emit (guarded or not) of an ``int`` ``Const``.  A
    ``bool`` or ``float`` literal, a computed value or a second emit is
    None."""
    if len(emits) != 1 or not isinstance(emits[0].value, Const):
        return None
    value = emits[0].value.value
    return value if type(value) is int else None


def _map_source(
    bind: list[str], emits: tuple[Emit, ...], renderer: _Renderer, columns: bool
) -> str:
    """A map kernel around its per-record ``bind`` lines.

    The row form hands each pair tuple to ``__emit``.  The column form
    returns ``(keys, values)``: two comprehensions for a single
    unconditional emit with nothing to bind (the key column is evaluated
    before the value column, so a chunk on which both raise reports the
    key's error), one loop with two appends for anything else.  When
    every value is one int literal (:func:`int_constant`) only the keys
    are collected and the value column is ``[c] * len(__keys)``.
    """
    if not columns:
        body = bind + _emit_lines(emits, renderer, "__emit(({key}, {value}))")
        return (
            "def __kernel(__records, __emit):\n"
            "    for __rec in __records:\n" + "\n".join(body) + "\n"
        )
    constant = int_constant(emits)
    if constant is None:
        values, statement = "__values", "__key({key}); __value({value})"
    else:
        values, statement = f"[{constant!r}] * len(__keys)", "__key({key})"
    if not bind and len(emits) == 1 and emits[0].cond is None:
        key = renderer.expr(emits[0].key)
        if constant is None:
            values = f"[{renderer.expr(emits[0].value)} for __rec in __records]"
        return (
            "def __kernel(__records):\n"
            f"    __keys = [{key} for __rec in __records]\n"
            f"    return __keys, {values}\n"
        )
    body = bind + _emit_lines(emits, renderer, statement)
    return (
        "def __kernel(__records):\n"
        "    __keys = []; __values = []\n"
        "    __key = __keys.append; __value = __values.append\n"
        "    for __rec in __records:\n" + "\n".join(body) + "\n"
        f"    return __keys, {values}\n"
    )


def _live_atoms(emits: tuple[Emit, ...], view: DatasetView) -> set[str]:
    atoms = _record_atoms(view)
    used: set[str] = set()
    for emit in emits:
        used |= expr_vars(emit.key) | expr_vars(emit.value)
        if emit.cond is not None:
            used |= expr_vars(emit.cond)
    return used & atoms


def render_record_kernel(
    emits: tuple[Emit, ...], view: DatasetView, columns: bool = False
) -> KernelSource:
    """Render the first map stage (raw record → pairs) to source: the
    row kernel, or with ``columns`` the ``(keys, values)`` kernel."""
    renderer = _Renderer()
    bind: list[str] = []
    _bind_record(view, _live_atoms(emits, view), renderer, bind)
    source = _map_source(bind, emits, renderer, columns)
    return KernelSource(source, renderer.globals, renderer.helpers)


def render_pair_kernel(
    params: tuple[str, ...], emits: tuple[Emit, ...], columns: bool = False
) -> KernelSource:
    """Render a later map stage ((key, value) pair → pairs) to source,
    in row or column form like :func:`render_record_kernel`."""
    k_name = params[0]
    v_name = params[1] if len(params) > 1 else "v"
    renderer = _Renderer(bound={k_name: "__rec[0]", v_name: "__rec[1]"})
    source = _map_source([], emits, renderer, columns)
    return KernelSource(source, renderer.globals, renderer.helpers)


def render_reduce_kernel(body: IRExpr, params: tuple[str, str]) -> KernelSource:
    """Render λr (two accumulator params → value) to source."""
    renderer = _Renderer(bound={params[0]: "__a", params[1]: "__b"})
    expression = renderer.expr(body)
    source = f"def __kernel(__a, __b):\n    return {expression}\n"
    return KernelSource(source, renderer.globals, renderer.helpers)


def render_fold_kernel(body: IRExpr, params: tuple[str, str]) -> KernelSource:
    """Render λr inlined into the keyed fold of a batch of pairs.

    ``acc[k] = λr(acc[k], b) if k in acc else b`` over the zipped key and
    value columns: per key the same left fold, in the same arrival
    order, as calling the reduce kernel pair by pair — so float sums,
    min/max ties and tuple accumulators come out bit-identical for any
    λr.  The accumulator is read into a local when λr names it more than
    once (``a < b ? a : b``).
    """
    reads = sum(
        isinstance(e, Var) and e.name == params[0] for e in walk_expr(body)
    )
    accumulator = "__a" if reads > 1 else "__acc[__k]"
    renderer = _Renderer(bound={params[0]: accumulator, params[1]: "__b"})
    expression = renderer.expr(body)
    load = "            __a = __acc[__k]\n" if reads > 1 else ""
    source = (
        "def __kernel(__keys, __values, __acc):\n"
        "    for __k, __b in zip(__keys, __values):\n"
        "        if __k in __acc:\n"
        f"{load}"
        f"            __acc[__k] = {expression}\n"
        "        else:\n"
        "            __acc[__k] = __b\n"
    )
    return KernelSource(source, renderer.globals, renderer.helpers)


def _sampled_map_lines(
    index: int,
    stage: MapStage,
    loop: str,
    bind: list[str],
    renderer: _Renderer,
) -> list[str]:
    """One map stage of the sampler: a single pass over ``loop``'s
    items filling one key/value column pair *per emit*, then the fired
    share of each conditional emit and the columns concatenated
    emit-major — the order the reference estimator's emit-outer loop
    produces, which a later reduce's first-value-per-key depends on."""
    emits = stage.lam.emits
    lines = [f"    __n = len({'__records' if index == 0 else '__keys'})"]
    body = list(bind)
    for e, emit in enumerate(emits):
        lines.append(
            f"    __k{e} = []; __v{e} = []; "
            f"__ka{e} = __k{e}.append; __va{e} = __v{e}.append"
        )
        body += _emit_lines((emit,), renderer, f"__ka{e}({{key}}); __va{e}({{value}})")
    lines += [f"    {loop}", *body]
    for e, emit in enumerate(emits):
        if emit.cond is not None:
            lines.append(f"    if __n: __p['p_s{index}_{e}'] = len(__k{e}) / __n")
    both = range(len(emits))
    lines.append(
        f"    __keys = {' + '.join(f'__k{e}' for e in both)}; "
        f"__values = {' + '.join(f'__v{e}' for e in both)}"
    )
    return lines


def render_sampler(
    pipeline: Pipeline, view: DatasetView, right_views: dict[str, DatasetView]
) -> KernelSource:
    """Render the runtime monitor's first-k sampling pass to source.

    The kernel ``(records, right, p, k)`` is
    :func:`repro.cost.monitor.estimate_from_sample` unrolled over this
    pipeline's stages, reading the *raw* record head (live atoms only,
    no environment dict per record) and ``right`` — a join's bounded raw
    right-relation samples by relation name, ``{}`` when the caller has
    none — and writing each ``p_s<stage>_<emit>`` / ``p_s<stage>_j``
    into ``p`` and each ``k_s<stage>`` into ``k`` with the reference's
    values and insertion order:

    * a map stage is one loop with a column pair per emit
      (:func:`_sampled_map_lines`);
    * a reduce stage records distinct / total keys and keeps the first
      value per key in first-seen key order (``dict.fromkeys`` fixes the
      order, the reversed ``update`` leaves each key its first value);
    * a join stage without a right sample records selectivity 1.0 and
      returns, with one maps the right side record-major into an index,
      probes it, and carries the joined pairs on.

    A pipeline that does not open with a map stage, or joins a relation
    ``right_views`` cannot bind, raises
    :class:`~repro.errors.KernelUnsupported`.
    """
    stages = pipeline.stages
    if not stages or not isinstance(stages[0], MapStage):
        raise KernelUnsupported("sampled pipeline does not open with a map stage")
    shared = _Renderer()
    lines = ["def __kernel(__records, __right, __p, __k):"]
    for index, stage in enumerate(stages):
        if isinstance(stage, MapStage):
            bind: list[str] = []
            if index == 0:
                renderer = _Renderer(parent=shared)
                _bind_record(view, _live_atoms(stage.lam.emits, view), renderer, bind)
                loop = "for __rec in __records:"
            else:
                params = stage.lam.params
                v_name = params[1] if len(params) > 1 else "v"
                renderer = _Renderer({params[0]: "__pk", v_name: "__pv"}, shared)
                loop = "for __pk, __pv in zip(__keys, __values):"
            lines += _sampled_map_lines(index, stage, loop, bind, renderer)
        elif isinstance(stage, ReduceStage):
            lines += [
                "    __seen = dict.fromkeys(__keys)",
                f"    __k['k_s{index}'] = len(__seen) / len(__keys) if __keys else 0.0",
            ]
            if index + 1 < len(stages):
                lines += [
                    "    __seen.update(zip(reversed(__keys), reversed(__values)))",
                    "    __keys = list(__seen); __values = list(__seen.values())",
                ]
        elif isinstance(stage, JoinStage):
            source = stage.right.source
            right_map = stage.right.stages[0] if stage.right.stages else None
            if source not in right_views or not isinstance(right_map, MapStage):
                raise KernelUnsupported(f"no view to bind join relation {source!r}")
            renderer = _Renderer(parent=shared)
            bind = []
            right_view = right_views[source]
            emits = right_map.lam.emits
            _bind_record(right_view, _live_atoms(emits, right_view), renderer, bind)
            indexed = "__rp += 1; __index.setdefault({key}, []).append({value})"
            lines += [
                f"    __rrecs = __right.get({source!r})",
                "    if not __rrecs:",
                f"        __p['p_s{index}_j'] = 1.0",
                "        return",
                "    __index = {}; __rp = 0",
                "    for __rec in __rrecs:",
                *bind,
                *_emit_lines(emits, renderer, indexed),
                "    __jk = []; __jv = []",
                "    for __pk, __pv in zip(__keys, __values):",
                "        for __rv in __index.get(__pk, ()):",
                "            __jk.append(__pk); __jv.append((__pv, __rv))",
                "    __possible = len(__keys) * max(1, __rp)",
                f"    __p['p_s{index}_j'] = len(__jk) / __possible if __possible else 1.0",
                "    __keys = __jk; __values = __jv",
            ]
        else:
            raise KernelUnsupported(f"unknown stage {type(stage).__name__}")
    return KernelSource("\n".join(lines) + "\n", shared.globals, shared.helpers)


#: Every builtin a rendered kernel may name: ``bool`` for the logic
#: ops, ``zip`` for the pair loops, the rest for the sampler's
#: bookkeeping.
_KERNEL_BUILTINS = {
    "bool": bool, "zip": zip, "len": len, "dict": dict, "list": list,
    "reversed": reversed, "max": max,
}


@lru_cache(maxsize=512)
def _code_for(source: str, label: str) -> CodeType:
    """The code object of one rendered kernel source.

    Every kernel is rebuilt per run (its globals are that run's values)
    and again in each pool worker, but the source of a given stage never
    changes — so builtin ``compile``, the one cost of a build that does
    not shrink with the input, is paid once per source per process.
    """
    return compile(source, f"<kernel:{label}>", "exec")


def compile_kernel(
    rendered: KernelSource, globals_env: dict[str, Any], label: str
) -> Callable:
    """Compile rendered source, resolving summary globals by value."""
    namespace: dict[str, Any] = {"__builtins__": _KERNEL_BUILTINS}
    namespace.update(rendered.helpers)
    for name, mangled in rendered.globals.items():
        if name not in globals_env:
            raise IRError(f"unbound IR variable {name!r}")
        namespace[mangled] = globals_env[name]
    exec(_code_for(rendered.source, label), namespace)
    return namespace["__kernel"]


# ----------------------------------------------------------------------
# numpy fast path: multi-column, int/float/bool, guarded

#: CallFn names the vector renderer can express exactly (see each case
#: in ``_VecRenderer.expr`` for the exactness argument).
_VEC_NP_FUNCS = {"sqrt": "sqrt", "floor": "floor", "ceil": "ceil"}


class _VecUnsupported(Exception):
    """Internal: expression falls outside the provably exact subset."""


class GuardTrip(Exception):
    """Runtime guard: a vectorized int64 op could wrap (or int64-min
    negate/abs would overflow).  The chunk falls back to the compiled
    row loop, which computes with Python's arbitrary-precision ints."""


_I64_MAX = 2**63 - 1


def _int_bound(value: Any) -> int:
    """Max |operand| as a Python int — arrays and scalars alike."""
    import numpy as np

    if isinstance(value, np.ndarray):
        if value.shape[0] == 0:
            return 0
        return max(abs(int(value.max())), abs(int(value.min())))
    return abs(int(value))


def _guarded_add(a: Any, b: Any) -> Any:
    if _int_bound(a) + _int_bound(b) > _I64_MAX:
        raise GuardTrip("int64 add could overflow")
    return a + b


def _guarded_sub(a: Any, b: Any) -> Any:
    if _int_bound(a) + _int_bound(b) > _I64_MAX:
        raise GuardTrip("int64 sub could overflow")
    return a - b


def _guarded_mul(a: Any, b: Any) -> Any:
    if _int_bound(a) * _int_bound(b) > _I64_MAX:
        raise GuardTrip("int64 mul could overflow")
    return a * b


def _guarded_sq(a: Any) -> Any:
    bound = _int_bound(a)
    if bound * bound > _I64_MAX:
        raise GuardTrip("int64 sq could overflow")
    return a * a


def _guarded_neg(a: Any) -> Any:
    if _int_bound(a) > _I64_MAX:
        raise GuardTrip("negating int64 min overflows")
    return -a


def _guarded_abs(a: Any) -> Any:
    if _int_bound(a) > _I64_MAX:
        raise GuardTrip("abs of int64 min overflows")
    import numpy as np

    return np.abs(a)


def _guarded_where(cond: Any, then: Any, other: Any) -> Any:
    if max(_int_bound(then), _int_bound(other)) > _I64_MAX:
        raise GuardTrip("int64 select could overflow")
    import numpy as np

    return np.where(cond, then, other)


def _to_double(value: Any) -> Any:
    # int64 → float64 rounds to nearest, exactly like Python float(int).
    import numpy as np

    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    return float(value)


class _VecRenderer:
    """Renders an IR expression over typed column arrays to numpy source.

    ``columns`` maps record-atom names to ``(argument, kind)`` — each
    live column arrives as its own validated int64/float64/bool array
    argument.  ``expr`` returns ``(code, kind, is_array)``; every op
    that could silently wrap int64 renders through a guard helper that
    raises :class:`GuardTrip` (per-chunk row-loop fallback) instead.
    Float ops are restricted to the set whose float64 semantics are
    bit-identical to the evaluator's Python floats.
    """

    def __init__(
        self,
        columns: dict[str, tuple[str, str]],
        globals_env: dict[str, Any],
    ) -> None:
        self.columns = columns
        self.globals_env = globals_env
        self.namespace: dict[str, Any] = {}
        self._global_names: dict[str, str] = {}

    def _helper(self, alias: str, value: Any) -> str:
        self.namespace[alias] = value
        return alias

    def _np_helper(self, np_name: str) -> str:
        import numpy as np

        return self._helper(f"__np_{np_name}", getattr(np, np_name))

    def expr(self, e: IRExpr) -> tuple[str, str, bool]:
        if isinstance(e, Const):
            if isinstance(e.value, bool):
                return repr(e.value), "bool", False
            if isinstance(e.value, int):
                return repr(e.value), "int", False
            if isinstance(e.value, float):
                if e.value != e.value or e.value in (float("inf"), float("-inf")):
                    raise _VecUnsupported("non-finite constant")
                return repr(e.value), "float", False
            raise _VecUnsupported("non-numeric constant")
        if isinstance(e, Var):
            if e.name in self.columns:
                argument, kind = self.columns[e.name]
                return argument, kind, True
            if e.name in self.globals_env:
                value = self.globals_env[e.name]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise _VecUnsupported("non-numeric global")
                if e.name not in self._global_names:
                    mangled = f"_g{len(self._global_names)}"
                    self._global_names[e.name] = mangled
                    self.namespace[mangled] = value
                name = self._global_names[e.name]
                return name, "float" if isinstance(value, float) else "int", False
            raise _VecUnsupported(f"unbound variable {e.name!r}")
        if isinstance(e, BinOp):
            if e.op in ("&&", "||"):
                left, lk, lv = self.expr(e.left)
                right, rk, rv = self.expr(e.right)
                if lk != "bool" or rk != "bool":
                    raise _VecUnsupported("non-boolean logic operand")
                fn = self._np_helper("logical_and" if e.op == "&&" else "logical_or")
                return f"{fn}({left}, {right})", "bool", lv or rv
            left, lk, lv = self.expr(e.left)
            right, rk, rv = self.expr(e.right)
            if lk not in ("int", "float") or rk not in ("int", "float"):
                raise _VecUnsupported("non-numeric operand")
            vec = lv or rv
            if e.op in ("+", "-", "*"):
                kind = "float" if "float" in (lk, rk) else "int"
                if kind == "int" and vec:
                    alias = {
                        "+": self._helper("__gadd", _guarded_add),
                        "-": self._helper("__gsub", _guarded_sub),
                        "*": self._helper("__gmul", _guarded_mul),
                    }[e.op]
                    return f"{alias}({left}, {right})", kind, vec
                return f"({left} {e.op} {right})", kind, vec
            if e.op in ("==", "!=", "<", "<=", ">", ">="):
                return f"({left} {e.op} {right})", "bool", vec
            raise _VecUnsupported(f"op {e.op!r} not exact on float64")
        if isinstance(e, UnOp):
            operand, kind, vec = self.expr(e.operand)
            if e.op == "-" and kind in ("int", "float"):
                if kind == "int" and vec:
                    alias = self._helper("__gneg", _guarded_neg)
                    return f"{alias}({operand})", kind, vec
                return f"(-{operand})", kind, vec
            if e.op == "!" and kind == "bool":
                return f"{self._np_helper('logical_not')}({operand})", "bool", vec
            raise _VecUnsupported(f"unary {e.op!r} on {kind}")
        if isinstance(e, Cond):
            cond, ck, cv = self.expr(e.cond)
            then, tk, tv = self.expr(e.then)
            other, ok, ov = self.expr(e.other)
            if ck != "bool" or tk not in ("int", "float") or ok not in ("int", "float"):
                raise _VecUnsupported("non-numeric conditional")
            kind = "float" if "float" in (tk, ok) else "int"
            vec = cv or tv or ov
            if kind == "int" and vec:
                alias = self._helper("__gwhere", _guarded_where)
                return f"{alias}({cond}, {then}, {other})", kind, vec
            return f"{self._np_helper('where')}({cond}, {then}, {other})", kind, vec
        if isinstance(e, CallFn):
            if e.name == "sq" and len(e.args) == 1:
                arg, kind, vec = self.expr(e.args[0])
                if kind not in ("int", "float"):
                    raise _VecUnsupported("sq on non-numeric")
                if kind == "int" and vec:
                    alias = self._helper("__gsq", _guarded_sq)
                    return f"{alias}({arg})", kind, vec
                return f"({arg} * {arg})", kind, vec
            if e.name == "to_double" and len(e.args) == 1:
                arg, kind, vec = self.expr(e.args[0])
                if kind == "float":
                    return arg, "float", vec
                if kind == "int":
                    alias = self._helper("__to_double", _to_double)
                    return f"{alias}({arg})", "float", vec
                raise _VecUnsupported("to_double on non-numeric")
            if e.name == "abs" and len(e.args) == 1:
                arg, kind, vec = self.expr(e.args[0])
                if kind not in ("int", "float"):
                    raise _VecUnsupported("abs on non-numeric")
                if kind == "int" and vec:
                    alias = self._helper("__gabs", _guarded_abs)
                    return f"{alias}({arg})", kind, vec
                return f"{self._np_helper('abs')}({arg})", kind, vec
            if e.name in _VEC_NP_FUNCS and len(e.args) == 1:
                # sqrt(neg) → NaN matches the evaluator; floor/ceil
                # return float(math.floor(x)) — np.floor is the same
                # value for both int and float inputs.
                arg, kind, vec = self.expr(e.args[0])
                if kind not in ("int", "float"):
                    raise _VecUnsupported(f"{e.name} on non-numeric")
                return f"{self._np_helper(_VEC_NP_FUNCS[e.name])}({arg})", "float", vec
            raise _VecUnsupported(f"function {e.name!r} not exact on float64")
        raise _VecUnsupported(f"{type(e).__name__} not vectorizable")


def _column_kind(jtype: Any) -> Optional[str]:
    """The exactness class a static type proves, or None.

    ``char`` is integral in the type system but its runtime values are
    one-character strings, so it never columnarizes.
    """
    name = getattr(jtype, "name", None)
    if name in ("int", "long"):
        return "int"
    if name in ("double", "float"):
        return "float"
    if name == "boolean":
        return "bool"
    return None


def column_specs(
    view: DatasetView, needed: set[str]
) -> Optional[tuple[ColumnSpec, ...]]:
    """Column specs for the needed record atoms, or None when any atom
    has no provably exact column (object fields, whole-struct refs)."""
    mapping: dict[str, Optional[ColumnSpec]] = {}
    if view.kind == "foreach":
        if view.element_class is None:
            name = view.element_var
            if name is None:
                return None
            try:
                kind = _column_kind(view.field_type(name))
            except KeyError:
                kind = None
            if kind is None:
                return None
            spec = ColumnSpec(name=name, kind=kind, access="self")
            # A scalar foreach element is reachable both by its loop
            # variable and as the implicit "__element" atom.
            mapping[name] = spec
            mapping["__element"] = spec
        else:
            if "__element" in needed:
                return None  # whole-struct emits need the row objects
            for fld in view.element_fields:
                kind = _column_kind(fld.jtype)
                mapping[fld.name] = (
                    ColumnSpec(fld.name, kind, "field", field=fld.name)
                    if kind is not None
                    else None
                )
    elif view.kind == "array1d":
        index_var = view.index_vars[0]
        mapping[index_var] = ColumnSpec(index_var, "int", "index", position=0)
        for position, name in enumerate(view.sources):
            try:
                kind = _column_kind(view.field_type(name))
            except KeyError:
                kind = None
            mapping[name] = (
                ColumnSpec(name, kind, "index", position=position + 1)
                if kind is not None
                else None
            )
    elif view.kind == "array2d":
        i_var, j_var = view.index_vars[0], view.index_vars[1]
        mapping[i_var] = ColumnSpec(i_var, "int", "index", position=0)
        mapping[j_var] = ColumnSpec(j_var, "int", "index", position=1)
        try:
            kind = _column_kind(view.field_type("v"))
        except KeyError:
            kind = None
        mapping["v"] = (
            ColumnSpec("v", kind, "index", position=2) if kind is not None else None
        )
    else:
        return None
    specs: list[ColumnSpec] = []
    for atom in sorted(needed):
        spec = mapping.get(atom)
        if spec is None:
            return None
        if spec not in specs:
            specs.append(spec)
    return tuple(specs)


class VectorKernel:
    """The compiled numpy chunk kernel: columns in, exact pairs out.

    ``run_block`` computes the emitted pairs as a
    :class:`~repro.engine.columnar.ColumnBlock` (key array or constant
    key, value array); ``None`` means a guard tripped — int64 overflow
    risk, a non-finite float result, data that broke the type promise —
    and the caller must run the compiled row loop for this chunk.
    """

    def __init__(
        self,
        specs: tuple[ColumnSpec, ...],
        value_fn: Callable,
        cond_fn: Optional[Callable],
        key_fn: Optional[Callable],
        key_const: Any,
    ) -> None:
        self.specs = specs
        self._value_fn = value_fn
        self._cond_fn = cond_fn
        self._key_fn = key_fn
        self.key_const = key_const

    def run_block(self, columns: dict[str, Any]) -> Optional[ColumnBlock]:
        import numpy as np

        arrays = [columns[spec.name] for spec in self.specs]
        length = int(arrays[0].shape[0]) if arrays else 0
        try:
            with np.errstate(all="ignore"):
                values = self._value_fn(*arrays)
                keys = self._key_fn(*arrays) if self._key_fn is not None else None
                if self._cond_fn is not None:
                    mask = self._cond_fn(*arrays)
                    if not isinstance(mask, np.ndarray) or mask.dtype != np.bool_:
                        return None
                    values = values[mask]
                    if keys is not None:
                        keys = keys[mask]
        except (GuardTrip, OverflowError, TypeError, ValueError):
            return None
        if not isinstance(values, np.ndarray) or values.ndim != 1:
            return None
        if self._cond_fn is None and values.shape[0] != length:
            return None
        if values.dtype.kind == "f" and not bool(np.isfinite(values).all()):
            return None  # inf/NaN chain: the row loop reproduces it exactly
        if keys is not None:
            if not isinstance(keys, np.ndarray) or keys.shape != values.shape:
                return None
            if keys.dtype.kind == "f" and not bool(np.isfinite(keys).all()):
                return None
        return ColumnBlock(values=values, keys=keys, key_const=self.key_const)

    def run(self, columns: dict[str, Any]) -> Optional[list[tuple]]:
        block = self.run_block(columns)
        return None if block is None else block.pairs()

    def __call__(self, records: Any) -> Optional[list[tuple]]:
        """Chunk of records → pairs; None → run the compiled loop."""
        columns = resolve_columns(records, self.specs)
        if columns is None:
            return None
        return self.run(columns)


def try_vectorize(
    emits: tuple[Emit, ...],
    view: DatasetView,
    globals_env: dict[str, Any],
) -> Optional[VectorKernel]:
    """Build the numpy chunk kernel, or None when not provably exact.

    Vectorizes a single emit whose value (and filter, and key — unless
    the key is record-independent, in which case it is evaluated once)
    reads any mix of int/float/bool columns the typechecker can prove
    exact.  Runtime validation and the int64/NaN guards make the kernel
    return None per chunk whenever exactness cannot be certified, and
    the compiled row loop takes over.
    """
    if len(emits) != 1:
        return None
    emit = emits[0]
    try:
        atoms = _record_atoms(view)
    except KernelUnsupported:
        return None
    value_vars = expr_vars(emit.value)
    key_vars = expr_vars(emit.key) & atoms
    cond_vars = expr_vars(emit.cond) if emit.cond is not None else set()
    needed = (value_vars & atoms) | key_vars | (cond_vars & atoms)
    if not (value_vars & atoms):
        return None  # constant value: nothing to vectorize
    if emit.cond is not None and not (cond_vars & atoms):
        return None  # record-independent filter: leave it to the loop
    specs = column_specs(view, needed)
    if specs is None:
        return None
    # The first stage the static checks accept loads numpy; a job that
    # never gets here never imports it.
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is present in the toolchain image
        return None
    arguments = {
        spec.name: (f"__c{index}", spec.kind)
        for index, spec in enumerate(specs)
    }
    columns = {
        atom: arguments[_spec_for(atom, specs, view).name]
        for atom in needed
    }
    renderer = _VecRenderer(columns, globals_env)
    signature = ", ".join(arguments[spec.name][0] for spec in specs)
    try:
        value_code, value_kind, value_vec = renderer.expr(emit.value)
        if value_kind not in ("int", "float", "bool") or not value_vec:
            return None
        cond_code = None
        if emit.cond is not None:
            cond_code, cond_kind, cond_vec = renderer.expr(emit.cond)
            if cond_kind != "bool" or not cond_vec:
                return None
        key_code = None
        key_const = None
        if key_vars:
            key_code, key_kind, key_vec = renderer.expr(emit.key)
            if key_kind not in ("int", "float", "bool") or not key_vec:
                return None
        else:
            key_const = eval_expr(emit.key, dict(globals_env))
    except (_VecUnsupported, IRError):
        return None

    body = f"def __value({signature}):\n    return {value_code}\n"
    if cond_code is not None:
        body += f"def __cond({signature}):\n    return {cond_code}\n"
    if key_code is not None:
        body += f"def __key({signature}):\n    return {key_code}\n"
    namespace: dict[str, Any] = {"__builtins__": {}}
    namespace.update(renderer.namespace)
    exec(_code_for(body, "numpy"), namespace)
    return VectorKernel(
        specs=specs,
        value_fn=namespace["__value"],
        cond_fn=namespace.get("__cond"),
        key_fn=namespace.get("__key"),
        key_const=key_const,
    )


def _spec_for(
    atom: str, specs: tuple[ColumnSpec, ...], view: DatasetView
) -> ColumnSpec:
    """The spec serving an atom (``__element`` aliases the loop var)."""
    for spec in specs:
        if spec.name == atom:
            return spec
    # scalar-foreach alias: "__element" shares the element column
    assert atom == "__element" and view.element_var is not None
    for spec in specs:
        if spec.name == view.element_var:
            return spec
    raise KeyError(atom)


# ----------------------------------------------------------------------
# λr shape recognition (for array-based partial aggregation)


def recognize_fold(body: IRExpr, params: tuple[str, str]) -> Optional[str]:
    """"sum" | "min" | "max" when λr is that fold over its two params.

    Only shapes whose grouped array fold is bit-identical to the
    ordered per-key fold are recognized (see
    :func:`repro.engine.columnar.grouped_fold` for the runtime guards).
    """
    names = set(params)
    if (
        isinstance(body, BinOp)
        and body.op == "+"
        and isinstance(body.left, Var)
        and isinstance(body.right, Var)
        and {body.left.name, body.right.name} == names
    ):
        return "sum"
    if (
        isinstance(body, CallFn)
        and body.name in ("min", "max")
        and len(body.args) == 2
        and all(isinstance(arg, Var) for arg in body.args)
        and {arg.name for arg in body.args} == names
    ):
        return body.name
    if (
        isinstance(body, Cond)
        and isinstance(body.cond, BinOp)
        and body.cond.op in ("<", "<=", ">", ">=")
        and isinstance(body.cond.left, Var)
        and isinstance(body.cond.right, Var)
        and isinstance(body.then, Var)
        and isinstance(body.other, Var)
        and {body.cond.left.name, body.cond.right.name} == names
        and {body.then.name, body.other.name} == names
    ):
        # a < b ? a : b picks the smaller operand (ties are value-equal
        # either way on validated homogeneous columns).
        smaller_first = body.cond.op in ("<", "<=")
        then_is_left = body.then.name == body.cond.left.name
        return "min" if smaller_first == then_is_left else "max"
    return None


# ----------------------------------------------------------------------
# Picklable compiled callables (drop-in for the evaluator classes)


def _run(fn: Callable, *args: Any) -> Any:
    """Call a chunk-level kernel; its ``TypeError`` is the evaluator's
    type error."""
    try:
        return fn(*args)
    except TypeError as exc:
        raise IRError(f"type error in compiled kernel: {exc}") from exc


class _Compiled:
    """What the compiled callables share: they carry only the IR inputs.

    Every kernel lives in a private field, built lazily and rebuilt
    after unpickling (compiled code does not pickle; ``_code_for``
    makes the rebuild cheap), so the multiprocess pool ships the same
    small payload either way.
    """

    def __getstate__(self) -> dict:
        return {
            name: None if name.startswith("_") else value
            for name, value in self.__dict__.items()
        }


@dataclass
class CompiledRecordMapper(_Compiled):
    """Compiled first map stage.  Drop-in for ``RecordMapper``.

    The engine detects ``map_chunk`` and feeds whole chunks, and asks
    ``map_columns`` of the last map stage before a shuffle.
    """

    emits: tuple[Emit, ...]
    globals_env: dict[str, Any]
    view: DatasetView
    label: str = "map"
    #: Set by ``map_chunk``/``map_columns``/``map_block`` when the vector
    #: kernel was attempted on the last chunk but a guard rejected it
    #: (the engine counts these as guard fallbacks), and when it
    #: actually produced the chunk's output.
    last_chunk_fallback: bool = field(default=False, compare=False)
    last_chunk_columnar: bool = field(default=False, compare=False)
    _fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _columns_fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _vec: Optional[VectorKernel] = field(default=None, repr=False, compare=False)
    _rendered: Optional[KernelSource] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        return {
            **super().__getstate__(),
            "last_chunk_fallback": False,
            "last_chunk_columnar": False,
        }

    def _ensure(self) -> Callable:
        if self._fn is None:
            self._rendered = render_record_kernel(self.emits, self.view)
            self._fn = compile_kernel(self._rendered, self.globals_env, self.label)
            self._vec = try_vectorize(self.emits, self.view, self.globals_env)
        return self._fn

    @property
    def source(self) -> str:
        self._ensure()
        assert self._rendered is not None
        return self._rendered.source

    @property
    def vectorized(self) -> bool:
        self._ensure()
        return self._vec is not None

    @property
    def emit_constant(self) -> Optional[int]:
        """The int every emitted value is (:func:`int_constant`), or None."""
        return int_constant(self.emits)

    @property
    def columns_spec(self) -> Optional[tuple[ColumnSpec, ...]]:
        """Columns the vector kernel consumes (None → not vectorized)."""
        self._ensure()
        return self._vec.specs if self._vec is not None else None

    def map_block(self, records: Any) -> Optional[ColumnBlock]:
        """Emitted pairs as a column block, or None → run ``map_chunk``."""
        self._ensure()
        self.last_chunk_fallback = False
        self.last_chunk_columnar = False
        if self._vec is None:
            return None
        columns = resolve_columns(records, self._vec.specs)
        if columns is None:
            return None
        block = self._vec.run_block(columns)
        if block is None:
            self.last_chunk_fallback = True
        else:
            self.last_chunk_columnar = True
        return block

    def map_rows(self, records: Any) -> list[tuple]:
        """The compiled row loop, bypassing the vector attempt (what the
        engine runs after a ``map_block`` guard trip, so the rejected
        vector computation is not redone)."""
        fn = self._fn if self._fn is not None else self._ensure()
        out: list[tuple] = []
        _run(fn, records, out.append)
        return out

    def _vector_block(self, records: Any) -> Optional[ColumnBlock]:
        """``map_chunk``'s vector attempt: the chunk's block, or None —
        flagged a fallback whenever there was a vector kernel to refuse
        the chunk, unreadable columns included."""
        self._ensure()
        block = None
        if self._vec is not None:
            columns = resolve_columns(records, self._vec.specs)
            block = None if columns is None else self._vec.run_block(columns)
        self.last_chunk_columnar = block is not None
        self.last_chunk_fallback = block is None and self._vec is not None
        return block

    def map_chunk(self, records: Any) -> list[tuple]:
        block = self._vector_block(records)
        return self.map_rows(records) if block is None else block.pairs()

    def map_columns(self, records: Any) -> tuple[list, list]:
        """``map_chunk`` with the pairs as a key list and a value list."""
        block = self._vector_block(records)
        if block is not None:
            return block.key_list(), block.values.tolist()
        if self._columns_fn is None:
            self._columns_fn = compile_kernel(
                render_record_kernel(self.emits, self.view, columns=True),
                self.globals_env,
                self.label,
            )
        return _run(self._columns_fn, records)

    def __call__(self, record: Any) -> list[tuple]:
        """One record through the row loop: a join's per-record callers
        (the tagged mapper, the broadcast build) skip the vector try."""
        return self.map_rows((record,))


@dataclass
class CompiledPairMapper(_Compiled):
    """Compiled later map stage.  Drop-in for ``PairMapper``."""

    params: tuple[str, ...]
    emits: tuple[Emit, ...]
    globals_env: dict[str, Any]
    label: str = "map"
    _fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _columns_fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _rendered: Optional[KernelSource] = field(
        default=None, repr=False, compare=False
    )

    def _ensure(self) -> Callable:
        if self._fn is None:
            self._rendered = render_pair_kernel(self.params, self.emits)
            self._fn = compile_kernel(self._rendered, self.globals_env, self.label)
        return self._fn

    @property
    def source(self) -> str:
        self._ensure()
        assert self._rendered is not None
        return self._rendered.source

    @property
    def emit_constant(self) -> Optional[int]:
        """The int every emitted value is (:func:`int_constant`), or None."""
        return int_constant(self.emits)

    def map_chunk(self, pairs: Any) -> list[tuple]:
        fn = self._fn if self._fn is not None else self._ensure()
        out: list[tuple] = []
        _run(fn, pairs, out.append)
        return out

    def map_columns(self, pairs: Any) -> tuple[list, list]:
        """``map_chunk`` with the pairs as a key list and a value list."""
        if self._columns_fn is None:
            self._columns_fn = compile_kernel(
                render_pair_kernel(self.params, self.emits, columns=True),
                self.globals_env,
                self.label,
            )
        return _run(self._columns_fn, pairs)

    def __call__(self, pair: tuple) -> list[tuple]:
        return self.map_chunk((pair,))


@dataclass
class CompiledReduce(_Compiled):
    """Compiled λr.  Drop-in for ``ReduceApplier``."""

    body: IRExpr
    params: tuple[str, str]
    globals_env: dict[str, Any]
    label: str = "reduce"
    _fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _fold_fn: Optional[Callable] = field(default=None, repr=False, compare=False)
    _rendered: Optional[KernelSource] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def grouped_op(self) -> Optional[str]:
        """"sum"/"min"/"max" when λr admits array-based grouped folds."""
        return recognize_fold(self.body, self.params)

    def _ensure(self) -> Callable:
        if self._fn is None:
            self._rendered = render_reduce_kernel(self.body, self.params)
            self._fn = compile_kernel(self._rendered, self.globals_env, self.label)
        return self._fn

    @property
    def source(self) -> str:
        self._ensure()
        assert self._rendered is not None
        return self._rendered.source

    def fold(self, keys: Any, values: Any, acc: dict) -> None:
        """Fold a batch of pairs into ``acc`` — per key, exactly the
        ordered ``__call__`` fold (:func:`render_fold_kernel`)."""
        if self._fold_fn is None:
            self._fold_fn = compile_kernel(
                render_fold_kernel(self.body, self.params),
                self.globals_env,
                self.label,
            )
        _run(self._fold_fn, keys, values, acc)

    def __call__(self, a: Any, b: Any) -> Any:
        fn = self._fn if self._fn is not None else self._ensure()
        try:
            return fn(a, b)
        except TypeError as exc:
            raise IRError(f"type error in compiled kernel: {exc}") from exc


@dataclass
class CompiledSampler:
    """The runtime monitor's sampling pass over one implementation's
    pipeline, compiled (:func:`render_sampler`).

    Rendered on the first job that samples, kept for the program's
    lifetime (the source never changes); each run only re-binds that
    job's globals (:func:`compile_kernel`, code object memoised).
    """

    pipeline: Pipeline
    view: DatasetView
    #: A join's right relations: relation name → the view binding its
    #: raw records.
    right_views: dict[str, DatasetView]
    _rendered: Optional[KernelSource] = field(
        default=None, repr=False, compare=False
    )

    def _ensure(self) -> KernelSource:
        if self._rendered is None:
            self._rendered = render_sampler(
                self.pipeline, self.view, self.right_views
            )
        return self._rendered

    @property
    def source(self) -> str:
        return self._ensure().source

    def run(
        self,
        records: list,
        globals_env: dict[str, Any],
        right: dict[str, list],
        probabilities: dict[str, float],
        key_ratios: dict[str, float],
    ) -> None:
        """Sample ``records`` (and ``right``), writing the estimates
        into ``probabilities`` / ``key_ratios``.  Whatever the rendered
        expressions raise on a record propagates untranslated — the
        caller answers any failure with the reference estimator."""
        kernel = compile_kernel(self._ensure(), globals_env, "sample")
        kernel(records, right, probabilities, key_ratios)

"""Join-shaped fragment analysis: nested loops over two (or three) datasets.

The paper's §7.4 demo translates a query that joins ``part``, ``supplier``
and ``partsupp`` and lets the runtime monitor pick between two generated
join orderings.  This module supplies the *program analyzer* half of that
story: it recognizes the canonical sequential join shape —

.. code-block:: java

    for (PartSupp ps : partsupp)
      for (Supplier s : supplier)
        if (ps.ps_suppkey == s.s_suppkey)
          ...                      // accumulate, or nest another join

— i.e. a foreach nest over distinct datasets whose inner loops are guarded
by an equi-predicate between a field of an already-bound element and a
field of the inner element.  The extracted :class:`JoinInfo` names each
relation (a :class:`JoinSide` with its own per-side dataset view), the
key pair of every join level, the residual (non-key) conditions, and the
innermost accumulation body — everything the JOIN grammar class, the
structural join prover, and the physical join codegen need.

Scope (documented limitations, mirroring the paper's frontend):

* two or three relations (one or two join levels);
* class-typed elements with globally distinct field names (TPC-H-style
  prefixed columns), so field atoms name their relation unambiguously;
* the inner loop body is a single ``if`` whose condition conjoins the
  equi-predicate (plus optional residual filters).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .. import ast_nodes as ast
from ..types import ClassType, ListType
from .loops import DatasetField, DatasetView
from .typecheck import TypeEnv

#: Names the summary IR reserves for pair binders; a relation field using
#: one of them could not be rebound in post-join transformer functions.
_RESERVED_FIELD_NAMES = frozenset({"k", "v", "v1", "v2", "__t", "__element"})

#: Largest supported join nest: three relations (the §7.4 3-way demo).
MAX_JOIN_LEVELS = 2


@dataclass
class JoinSide:
    """One relation of a join nest, with its standalone dataset view."""

    source: str  # dataset variable name
    var: str  # loop binder
    element_class: str
    view: DatasetView  # per-side foreach view (materialize/record_env)

    @property
    def fields(self) -> list[DatasetField]:
        return self.view.element_fields

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.view.element_fields]


@dataclass
class JoinLevel:
    """One join of the nest: the inner relation plus its equi-key pair."""

    side: JoinSide  # the inner (right) relation
    left_owner: str  # source name of the relation owning the left key
    left_key: str  # field name on the owner side
    right_key: str  # field name on ``side``
    residuals: list[ast.Expr] = field(default_factory=list)


@dataclass
class JoinInfo:
    """Everything join-specific the later passes need about a fragment."""

    base: JoinSide
    levels: list[JoinLevel]
    #: Innermost accumulation statements (the body that runs when every
    #: equi-predicate holds; residual conditions are kept separately).
    body: list[ast.Stmt]

    @property
    def sides(self) -> list[JoinSide]:
        return [self.base, *(level.side for level in self.levels)]

    def side_for(self, source: str) -> JoinSide:
        for side in self.sides:
            if side.source == source:
                return side
        raise KeyError(source)

    def level_for(self, source: str) -> JoinLevel:
        for level in self.levels:
            if level.side.source == source:
                return level
        raise KeyError(source)

    @property
    def guarded_body(self) -> list[ast.Stmt]:
        """The innermost body wrapped in the residual (non-key) guards.

        This is the semantics of one matched tuple: given that every join
        key pair is equal, the original program runs ``body`` iff every
        residual condition holds.  Symbolic harvesting and the structural
        join proof both consume this form.
        """
        residuals: list[ast.Expr] = []
        for level in self.levels:
            residuals.extend(level.residuals)
        stmts = self.body
        for cond in reversed(residuals):
            stmts = [ast.If(cond=cond, then=ast.Block(stmts), other=None)]
        return stmts

    def orderings(self) -> list[tuple[int, ...]]:
        """Valid join-level permutations (the §7.4 ordering choices).

        A permutation is valid when every level's left key is owned by
        the base relation or by a relation joined earlier in the
        permutation — star patterns (all keys on the base) admit every
        order, linear chains only one.
        """
        valid: list[tuple[int, ...]] = []
        for perm in itertools.permutations(range(len(self.levels))):
            joined = {self.base.source}
            ok = True
            for index in perm:
                level = self.levels[index]
                if level.left_owner not in joined:
                    ok = False
                    break
                joined.add(level.side.source)
            if ok:
                valid.append(perm)
        return valid


def _stmts_of(body: ast.Stmt) -> list[ast.Stmt]:
    return body.stmts if isinstance(body, ast.Block) else [body]


def _split_conjuncts(cond: ast.Expr) -> list[ast.Expr]:
    if isinstance(cond, ast.BinOp) and cond.op == "&&":
        return _split_conjuncts(cond.left) + _split_conjuncts(cond.right)
    return [cond]


def _field_of(expr: ast.Expr, binders: dict[str, JoinSide]) -> Optional[tuple[str, str]]:
    """(source, field) when ``expr`` reads a field of a bound element."""
    if (
        isinstance(expr, ast.FieldAccess)
        and isinstance(expr.base, ast.Name)
        and expr.base.ident in binders
    ):
        side = binders[expr.base.ident]
        if expr.field in side.field_names:
            return side.source, expr.field
    return None


def _make_side(
    loop: ast.ForEach, env: TypeEnv, program: ast.Program
) -> Optional[JoinSide]:
    """Build a JoinSide for one foreach level; None when out of shape."""
    if not isinstance(loop.iterable, ast.Name):
        return None
    source = loop.iterable.ident
    source_type = env.lookup(source)
    if not isinstance(source_type, ListType):
        return None
    element = source_type.element
    if not isinstance(element, ClassType):
        return None
    try:
        decl = program.class_decl(element.name)
    except KeyError:
        return None
    fields = [DatasetField(f.name, f.type) for f in decl.fields]
    view = DatasetView(
        kind="foreach",
        sources=[source],
        element_fields=fields,
        element_var=loop.var_name,
        element_class=element.name,
    )
    return JoinSide(
        source=source, var=loop.var_name, element_class=element.name, view=view
    )


def extract_join_info(
    loop: ast.Stmt, env: TypeEnv, program: ast.Program
) -> Optional[tuple[DatasetView, JoinInfo]]:
    """Recognize a join nest; returns (composite view, JoinInfo) or None.

    The composite view lists *every* relation in ``sources`` (so the
    grammar treats none of them as broadcast inputs and the feature
    census records ``multiple_datasets``) and the union of all sides'
    field atoms in ``element_fields``; the per-side views live in
    ``view.sides`` / ``JoinInfo`` for materialization and codegen.
    """
    if not isinstance(loop, ast.ForEach):
        return None
    base = _make_side(loop, env, program)
    if base is None:
        return None

    binders: dict[str, JoinSide] = {base.var: base}
    levels: list[JoinLevel] = []
    body = _stmts_of(loop.body)
    while len(body) == 1 and isinstance(body[0], ast.ForEach):
        if len(levels) >= MAX_JOIN_LEVELS:
            return None
        inner = body[0]
        side = _make_side(inner, env, program)
        if side is None or inner.var_name in binders:
            return None
        if any(side.source == s.source for s in binders.values()):
            return None
        inner_body = _stmts_of(inner.body)
        if len(inner_body) != 1 or not isinstance(inner_body[0], ast.If):
            return None
        guard = inner_body[0]
        if guard.other is not None:
            return None
        key_pair: Optional[tuple[str, str, str]] = None  # (owner, lk, rk)
        residuals: list[ast.Expr] = []
        inner_binders = {**binders, inner.var_name: side}
        for conjunct in _split_conjuncts(guard.cond):
            if key_pair is None and isinstance(conjunct, ast.BinOp) and conjunct.op == "==":
                left = _field_of(conjunct.left, inner_binders)
                right = _field_of(conjunct.right, inner_binders)
                if left is not None and right is not None:
                    if left[0] == side.source and right[0] != side.source:
                        key_pair = (right[0], right[1], left[1])
                        continue
                    if right[0] == side.source and left[0] != side.source:
                        key_pair = (left[0], left[1], right[1])
                        continue
            residuals.append(conjunct)
        if key_pair is None:
            return None
        owner, left_key, right_key = key_pair
        levels.append(
            JoinLevel(
                side=side,
                left_owner=owner,
                left_key=left_key,
                right_key=right_key,
                residuals=residuals,
            )
        )
        binders[inner.var_name] = side
        body = _stmts_of(guard.then)

    if not levels or not body:
        return None
    # The innermost body must be loop-free — a further loop would make
    # this a join nest only on the surface.
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.For, ast.ForEach, ast.While, ast.DoWhile)):
                return None

    sides = [base, *(level.side for level in levels)]
    all_fields: list[DatasetField] = []
    seen: set[str] = set()
    for side in sides:
        for fld in side.fields:
            if fld.name in seen or fld.name in _RESERVED_FIELD_NAMES:
                return None  # ambiguous atoms — fall back to the flat view
            seen.add(fld.name)
            all_fields.append(fld)
    composite = DatasetView(
        kind="join",
        sources=[side.source for side in sides],
        element_fields=all_fields,
        element_var=None,
        element_class=None,
        sides=[side.view for side in sides],
    )
    info = JoinInfo(base=base, levels=levels, body=body)
    return composite, info


def rewrite_side_fields(stmt: ast.Stmt, join: JoinInfo) -> ast.Stmt:
    """Rewrite ``binder.field`` reads to bare field atoms, per side.

    Mirrors :func:`repro.verification.loops.rewrite_array_reads` for
    array views: after rewriting, symbolic execution of the join body
    sees a pure function of the (disjointly named) field atoms of every
    relation, with no per-element binders left.
    """
    import copy

    stmt = copy.deepcopy(stmt)
    binders = {side.var: side for side in join.sides}

    def rewrite(expr: ast.Expr) -> ast.Expr:
        if (
            isinstance(expr, ast.FieldAccess)
            and isinstance(expr.base, ast.Name)
            and expr.base.ident in binders
            and expr.field in binders[expr.base.ident].field_names
        ):
            return ast.Name(expr.field, line=expr.line)
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

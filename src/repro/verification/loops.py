"""The loop side of every Tier-1 obligation.

A step obligation compares one execution of the loop body with merging
one element into the summary.  This module produces the body side: the
loop's statements, the symbolic bindings of one element, and the
symbolic execution of a body into one :class:`SymState` per path.  It
also turns the source language's literals into IR constants.  Everything
here is a pure function of the fragment analysis; the grammar harvests
its update terms through :func:`symexec_body` too.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from ..errors import VerificationError
from ..ir.nodes import Const, IRExpr, Var
from ..lang import ast_nodes as ast
from ..lang.analysis.fragments import FragmentAnalysis
from .symexec import SymbolicExecutor, SymState


def loop_body(loop: ast.Stmt) -> list[ast.Stmt]:
    """The statements of a ``for`` / ``foreach`` loop's body."""
    if not isinstance(loop, (ast.ForEach, ast.For)):
        raise VerificationError("unsupported loop form for induction")
    body = loop.body
    return body.stmts if isinstance(body, ast.Block) else [body]


def element_bindings(analysis: FragmentAnalysis) -> dict[str, IRExpr]:
    """Source-var → IR-term bindings for one symbolic element."""
    view = analysis.view
    bindings: dict[str, IRExpr] = {}
    kinds = {f.name: str(f.jtype) for f in view.element_fields}
    for atom in view.field_names:
        bindings[atom] = Var(atom, ir_kind(kinds.get(atom, "int")))
    if view.element_var is not None:
        # The foreach binder denotes the whole element (selections
        # append it; struct fields are reached via FieldAccess).
        bindings.setdefault(view.element_var, Var("__element", "other"))
    # Broadcast inputs: scalars, plus read-only containers (looked up
    # with the IR's ``lookup`` function).
    for name, jtype in analysis.input_vars.items():
        if name in view.sources:
            continue
        if name not in bindings:
            if jtype.is_collection() or str(jtype).startswith("Map"):
                bindings[name] = Var(name, "container")
            else:
                bindings[name] = Var(name, ir_kind(str(jtype)))
    # Prelude constants (dt1, keys, ...) stay symbolic unless scalar.
    for name, value in analysis.prelude_constants.items():
        if name in analysis.output_vars:
            continue
        if isinstance(value, (bool, int, float, str)):
            bindings[name] = const_term(value)
        else:
            bindings.setdefault(name, Var(name, "int"))
    return bindings


def symexec_body(
    analysis: FragmentAnalysis,
    stmts: list[ast.Stmt],
    acc_bindings: dict[str, IRExpr],
    containers: set[str],
) -> list[SymState]:
    """Symbolically execute ``stmts`` for one element, with the
    accumulators bound to ``acc_bindings`` and ``containers`` written
    cell by cell."""
    view = analysis.view
    bindings = element_bindings(analysis)
    bindings.update(acc_bindings)
    executor = SymbolicExecutor(
        bindings=bindings,
        containers=containers,
        element_class=view.element_class,
        element_var=view.element_var,
    )
    if view.kind in ("array1d", "array2d"):
        # Map array reads a[i] to the element atom named after the array.
        stmts = [rewrite_array_reads(s, view) for s in stmts]
    return executor.execute(stmts)


def ir_kind(type_name: str) -> str:
    if type_name in ("double", "float"):
        return "double"
    if type_name in ("boolean", "String"):
        return type_name
    return "int"


def const_term(value: Any) -> IRExpr:
    """A Python value as an IR constant (anything else as int 0)."""
    if isinstance(value, bool):
        return Const(value, "boolean")
    if isinstance(value, float):
        return Const(value, "double")
    if isinstance(value, int):
        return Const(value, "int")
    if isinstance(value, str):
        return Const(value, "String")
    return Const(0, "int")


def lang_const_term(expr: ast.Expr) -> Optional[IRExpr]:
    """A source-language constant expression as an IR constant, or None."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.BoolLit, ast.StringLit)):
        return const_term(expr.value)
    if (
        isinstance(expr, ast.FieldAccess)
        and isinstance(expr.base, ast.Name)
        and expr.base.ident in ("Integer", "Double", "Long")
    ):
        from ..lang.stdlib import static_field

        return const_term(static_field(expr.base.ident, expr.field))
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        inner = lang_const_term(expr.operand)
        if isinstance(inner, Const) and not isinstance(inner.value, str):
            return Const(-inner.value, inner.kind)
    return None


def rewrite_array_reads(stmt: ast.Stmt, view) -> ast.Stmt:
    """Rewrite ``a[i]`` / ``a.get(i)`` to the element atom named ``a``.

    For array1d views, each source array read at the loop index becomes the
    corresponding element atom so symbolic execution sees a pure function
    of the element.
    """
    stmt = copy.deepcopy(stmt)
    index_var = view.index_vars[0]
    inner_var = view.index_vars[1] if len(view.index_vars) > 1 else None
    sources = set(view.sources)

    def rewrite(expr: ast.Expr) -> ast.Expr:
        # 2D matrix read m[i][j] → element atom "v".
        if (
            inner_var is not None
            and isinstance(expr, ast.Index)
            and isinstance(expr.base, ast.Index)
            and isinstance(expr.base.base, ast.Name)
            and expr.base.base.ident in sources
            and isinstance(expr.base.index, ast.Name)
            and expr.base.index.ident == index_var
            and isinstance(expr.index, ast.Name)
            and expr.index.ident == inner_var
        ):
            return ast.Name("v", line=expr.line)
        if (
            isinstance(expr, ast.Index)
            and isinstance(expr.base, ast.Name)
            and expr.base.ident in sources
            and isinstance(expr.index, ast.Name)
            and expr.index.ident == index_var
        ):
            return ast.Name(expr.base.ident, line=expr.line)
        if (
            isinstance(expr, ast.MethodCall)
            and expr.method == "get"
            and isinstance(expr.receiver, ast.Name)
            and expr.receiver.ident in sources
            and len(expr.args) == 1
            and isinstance(expr.args[0], ast.Name)
            and expr.args[0].ident == index_var
        ):
            return ast.Name(expr.receiver.ident, line=expr.line)
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

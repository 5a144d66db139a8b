"""Loop normalization and desugaring transformations.

The paper applies classical transformations to convert all loop forms into
``while(true) { ... if (!cond) break; ... }`` before generating VCs
(section 6.1).  We additionally desugar compound assignments and
increment/decrement expressions so that downstream symbolic execution only
sees plain ``=`` assignments.
"""

from __future__ import annotations

import copy
from typing import Optional

from .. import ast_nodes as ast


def desugar_expr(expr: ast.Expr) -> ast.Expr:
    """Rewrite ``x op= e`` to ``x = x op e`` and ``x++`` to ``x = x + 1``."""
    expr = _desugar_children(expr)
    if isinstance(expr, ast.Assign) and expr.op != "=":
        binop = ast.BinOp(expr.op[:-1], copy.deepcopy(expr.target), expr.value, line=expr.line)
        return ast.Assign(expr.target, "=", binop, line=expr.line)
    if isinstance(expr, ast.IncDec):
        op = "+" if expr.op == "++" else "-"
        binop = ast.BinOp(op, copy.deepcopy(expr.target), ast.IntLit(1), line=expr.line)
        return ast.Assign(expr.target, "=", binop, line=expr.line)
    return expr


def _desugar_children(expr: ast.Expr) -> ast.Expr:
    for name, value in vars(expr).items():
        if isinstance(value, ast.Expr):
            setattr(expr, name, desugar_expr(value))
        elif isinstance(value, list):
            setattr(
                expr,
                name,
                [desugar_expr(v) if isinstance(v, ast.Expr) else v for v in value],
            )
    return expr


def desugar_stmt(stmt: ast.Stmt) -> ast.Stmt:
    """Desugar all expressions within a statement tree (returns a copy)."""
    stmt = copy.deepcopy(stmt)
    _desugar_stmt_in_place(stmt)
    return stmt


def _desugar_stmt_in_place(stmt: ast.Stmt) -> None:
    for name, value in vars(stmt).items():
        if isinstance(value, ast.Expr):
            setattr(stmt, name, desugar_expr(value))
        elif isinstance(value, ast.Stmt):
            _desugar_stmt_in_place(value)
        elif isinstance(value, list):
            new_items = []
            for item in value:
                if isinstance(item, ast.Expr):
                    new_items.append(desugar_expr(item))
                elif isinstance(item, ast.Stmt):
                    _desugar_stmt_in_place(item)
                    new_items.append(item)
                else:
                    new_items.append(item)
            setattr(stmt, name, new_items)


def normalize_loop(loop: ast.Stmt) -> ast.While:
    """Convert any loop form into the canonical ``while(true)`` format.

    Returns a new While node:  ``while (true) { if (!cond) break; body;
    updates; }``.  ForEach loops are left to the dataset-view machinery and
    normalized against an introduced index variable.
    """
    loop = desugar_stmt(loop)
    true_lit = ast.BoolLit(True)

    if isinstance(loop, ast.While):
        guard = ast.If(ast.UnOp("!", loop.cond), ast.Break())
        body = ast.Block([guard, loop.body])
        return ast.While(true_lit, body, line=loop.line)

    if isinstance(loop, ast.DoWhile):
        guard = ast.If(ast.UnOp("!", loop.cond), ast.Break())
        body = ast.Block([loop.body, guard])
        return ast.While(true_lit, body, line=loop.line)

    if isinstance(loop, ast.For):
        stmts: list[ast.Stmt] = []
        if loop.cond is not None:
            stmts.append(ast.If(ast.UnOp("!", loop.cond), ast.Break()))
        stmts.append(loop.body)
        for update in loop.update:
            stmts.append(ast.ExprStmt(update))
        # Note: the init statements live *outside* the produced while; the
        # caller is responsible for executing them first.
        return ast.While(true_lit, ast.Block(stmts), line=loop.line)

    if isinstance(loop, ast.ForEach):
        index = ast.Name("__idx")
        size = ast.MethodCall(ast.Name(loop.iterable.ident if isinstance(loop.iterable, ast.Name) else "__it"), "size", [])  # type: ignore[union-attr]
        cond = ast.BinOp("<", index, size)
        guard = ast.If(ast.UnOp("!", cond), ast.Break())
        bind = ast.VarDecl(
            loop.var_type,
            loop.var_name,
            ast.MethodCall(copy.deepcopy(loop.iterable), "get", [copy.deepcopy(index)]),
        )
        incr = ast.ExprStmt(
            ast.Assign(copy.deepcopy(index), "=", ast.BinOp("+", copy.deepcopy(index), ast.IntLit(1)))
        )
        return ast.While(true_lit, ast.Block([guard, bind, loop.body, incr]), line=loop.line)

    raise TypeError(f"not a loop: {type(loop).__name__}")


def find_loops(stmt: ast.Stmt) -> list[ast.Stmt]:
    """All loop statements within ``stmt`` (pre-order, includes nested)."""
    loops: list[ast.Stmt] = []
    for node in ast.walk(stmt):
        if isinstance(node, (ast.For, ast.ForEach, ast.While, ast.DoWhile)):
            loops.append(node)
    return loops


def outermost_loops(stmts: list[ast.Stmt]) -> list[ast.Stmt]:
    """Loops not nested inside another loop, across a statement list."""
    result: list[ast.Stmt] = []

    def visit(node: ast.Stmt, in_loop: bool) -> None:
        if isinstance(node, (ast.For, ast.ForEach, ast.While, ast.DoWhile)):
            if not in_loop:
                result.append(node)
            in_loop = True
        for value in vars(node).values():
            if isinstance(value, ast.Stmt):
                visit(value, in_loop)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Stmt):
                        visit(item, in_loop)

    for stmt in stmts:
        visit(stmt, False)
    return result


def loop_bound_expr(loop: ast.Stmt) -> Optional[ast.Expr]:
    """The loop's iteration-bound expression when statically recognizable."""
    if isinstance(loop, ast.For) and loop.cond is not None:
        cond = loop.cond
        if isinstance(cond, ast.BinOp) and cond.op in ("<", "<="):
            return cond.right
    if isinstance(loop, ast.ForEach):
        return loop.iterable
    return None

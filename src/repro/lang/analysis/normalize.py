"""Desugaring, and the outermost loops of a statement list.

Compound assignments and increment/decrement expressions are rewritten
to plain ``=`` assignments so that downstream symbolic execution only
sees those (paper section 6.1).
"""

from __future__ import annotations

import copy

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

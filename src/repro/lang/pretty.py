"""Pretty-printer for mini-Java ASTs (used in diagnostics and reports)."""

from __future__ import annotations

from . import ast_nodes as ast


def format_expr(expr: ast.Expr) -> str:
    """Render an expression back to source-like text."""
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.FloatLit):
        return repr(expr.value)
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.StringLit):
        return '"' + expr.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(expr, ast.CharLit):
        return f"'{expr.value}'"
    if isinstance(expr, ast.NullLit):
        return "null"
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.BinOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, ast.UnOp):
        return f"{expr.op}{format_expr(expr.operand)}"
    if isinstance(expr, ast.Ternary):
        return (
            f"({format_expr(expr.cond)} ? {format_expr(expr.then)}"
            f" : {format_expr(expr.other)})"
        )
    if isinstance(expr, ast.Index):
        return f"{format_expr(expr.base)}[{format_expr(expr.index)}]"
    if isinstance(expr, ast.FieldAccess):
        return f"{format_expr(expr.base)}.{expr.field}"
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, ast.MethodCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{format_expr(expr.receiver)}.{expr.method}({args})"
    if isinstance(expr, ast.NewArray):
        dims = "".join(
            f"[{format_expr(d)}]" if d is not None else "[]" for d in expr.dims
        )
        return f"new {expr.element_type}{dims}"
    if isinstance(expr, ast.NewObject):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"new {expr.type}({args})"
    if isinstance(expr, ast.Assign):
        return f"{format_expr(expr.target)} {expr.op} {format_expr(expr.value)}"
    if isinstance(expr, ast.IncDec):
        if expr.prefix:
            return f"{expr.op}{format_expr(expr.target)}"
        return f"{format_expr(expr.target)}{expr.op}"
    if isinstance(expr, ast.Cast):
        return f"(({expr.type}) {format_expr(expr.operand)})"
    return f"<{type(expr).__name__}>"


def count_loc(node: ast.Node) -> int:
    """Count statement nodes — the 'lines of code' metric used in Table 2."""
    count = 0
    for child in ast.walk(node):
        if isinstance(child, ast.Stmt) and not isinstance(child, ast.Block):
            count += 1
    return count

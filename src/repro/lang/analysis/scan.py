"""Syntactic scan of a code fragment: operators, constants, methods.

This implements item (3) of the paper's analysis list (section 3.2): the
operators and library methods used in the input code, plus the literal
constants — all of which seed the search-space grammar's production rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .. import ast_nodes as ast
from ..types import BOOLEAN, DOUBLE, INT, JType, STRING


@dataclass
class ScanResult:
    """Operators, constants, and methods appearing in a fragment."""

    operators: set[str] = field(default_factory=set)
    methods: set[str] = field(default_factory=set)
    constants: list[tuple[Any, JType]] = field(default_factory=list)
    has_conditionals: bool = False
    has_nested_loops: bool = False
    loop_depth: int = 0


_ARITH = frozenset({"+", "-", "*", "/", "%"})
_COMPARE = frozenset({"<", ">", "<=", ">=", "==", "!="})
_LOGIC = frozenset({"&&", "||"})


def scan_fragment(stmts: list[ast.Stmt]) -> ScanResult:
    """Scan statements for operators/constants/methods used."""
    result = ScanResult()
    seen_constants: set[tuple[Any, str]] = set()

    def add_constant(value: Any, jtype: JType) -> None:
        key = (value, str(jtype))
        if key not in seen_constants:
            seen_constants.add(key)
            result.constants.append((value, jtype))

    def visit(node: ast.Node, depth: int) -> None:
        result.loop_depth = max(result.loop_depth, depth)
        if isinstance(node, (ast.For, ast.ForEach, ast.While, ast.DoWhile)):
            if depth >= 1:
                result.has_nested_loops = True
            child_depth = depth + 1
        else:
            child_depth = depth

        if isinstance(node, (ast.If, ast.Ternary)):
            result.has_conditionals = True
        if isinstance(node, ast.BinOp):
            result.operators.add(node.op)
        if isinstance(node, ast.UnOp):
            result.operators.add(node.op)
        if isinstance(node, ast.Assign) and node.op != "=":
            result.operators.add(node.op[:-1])
        if isinstance(node, ast.IncDec):
            result.operators.add("+" if node.op == "++" else "-")
        if isinstance(node, ast.IntLit):
            add_constant(node.value, INT)
        if isinstance(node, ast.FloatLit):
            add_constant(node.value, DOUBLE)
        if isinstance(node, ast.StringLit):
            add_constant(node.value, STRING)
        if isinstance(node, ast.BoolLit):
            add_constant(node.value, BOOLEAN)
        if isinstance(node, ast.MethodCall):
            receiver = node.receiver
            if isinstance(receiver, ast.Name):
                result.methods.add(f"{receiver.ident}.{node.method}")
            else:
                result.methods.add(node.method)
        if isinstance(node, ast.Call):
            result.methods.add(node.func)

        for value in vars(node).values():
            if isinstance(value, ast.Node):
                visit(value, child_depth)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Node):
                        visit(item, child_depth)

    for stmt in stmts:
        visit(stmt, 0)
    return result

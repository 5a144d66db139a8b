"""Declared types of a function's params and locals, for analyses.

The dataset-view, join and soundness analyses read the static type of a
variable from here (paper section 3.2: the grammar generator prunes
production rules by type).
"""

from __future__ import annotations

from typing import Optional

from .. import ast_nodes as ast
from ..types import JType


class TypeEnv:
    """Maps variable names to declared types: one flat map per function."""

    def __init__(self) -> None:
        self.bindings: dict[str, JType] = {}

    def define(self, name: str, jtype: JType) -> None:
        self.bindings[name] = jtype

    def lookup(self, name: str) -> Optional[JType]:
        return self.bindings.get(name)


def build_type_env(func: ast.FuncDecl, program: ast.Program) -> TypeEnv:
    """Collect declared types of params and *all* locals in the function.

    Mini-Java forbids shadowing in practice (our benchmarks don't shadow),
    so a flat map per function is sufficient and much simpler to use from
    fragment-level analyses.
    """
    env = TypeEnv()
    for param in func.params:
        env.define(param.name, param.type)
    for node in ast.walk(func.body):
        if isinstance(node, ast.VarDecl):
            env.define(node.name, node.type)
        elif isinstance(node, ast.ForEach):
            env.define(node.var_name, node.var_type)
    return env

"""Symbolic execution of mini-Java statements into IR terms.

Used by the inductive prover to obtain, for each execution path of a loop
body, the symbolic effect on the fragment's state: scalar updates and
container-cell writes, guarded by a path condition.  Statements supported
match the paper's frontend (section 6.1): declarations, assignments,
conditionals, and mutating collection calls.  Nested loops are *not*
executed here — the prover decomposes loop nests structurally first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..diagnostics.diagnostic import make as make_diagnostic
from ..errors import SymbolicUnsupported, VerificationError
from ..lang import ast_nodes as ast
from ..lang.analysis.normalize import desugar_stmt
from ..ir.nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    IRExpr,
    UnOp,
    Var,
)
from .algebra import normalize, term_key


def _unsupported(code: str, message: str, line: int = 0) -> SymbolicUnsupported:
    """A typed demote-to-Tier-2 error carrying its structured diagnostic.

    ``REP201`` marks side effects (mutating calls the executor cannot
    model), ``REP202`` every other construct outside the symbolic model;
    the prover forwards the diagnostic onto the :class:`ProofResult` so
    the demotion is machine-readable end to end.
    """
    return SymbolicUnsupported(message, diagnostic=make_diagnostic(code, message, line=line))


@dataclass(frozen=True)
class CellRef:
    """A symbolic reference to one cell of an output container."""

    container: str
    key: IRExpr  # normalized index/key term

    @property
    def name(self) -> str:
        return f"__cell({self.container})[{term_key(self.key)}]"


@dataclass
class SymState:
    """Symbolic state along one execution path."""

    scalars: dict[str, IRExpr] = field(default_factory=dict)
    # container -> list of (key term, value term); later writes shadow earlier
    writes: dict[str, list[tuple[IRExpr, IRExpr]]] = field(default_factory=dict)
    # appends to list-valued outputs (order-insensitive collection adds)
    appends: dict[str, list[IRExpr]] = field(default_factory=dict)
    path: list[tuple[IRExpr, bool]] = field(default_factory=list)
    # cells read before written: name -> (container, key, default var)
    cell_reads: dict[str, CellRef] = field(default_factory=dict)

    def clone(self) -> "SymState":
        return SymState(
            scalars=dict(self.scalars),
            writes={k: list(v) for k, v in self.writes.items()},
            appends={k: list(v) for k, v in self.appends.items()},
            path=list(self.path),
            cell_reads=dict(self.cell_reads),
        )


_METHOD_TO_IR = {
    ("Math", "abs"): "abs",
    ("Math", "min"): "min",
    ("Math", "max"): "max",
    ("Math", "sqrt"): "sqrt",
    ("Math", "pow"): "pow",
    ("Math", "exp"): "exp",
    ("Math", "log"): "log",
    ("Math", "floor"): "floor",
    ("Math", "ceil"): "ceil",
    ("Math", "round"): "round",
}

_INSTANCE_TO_IR = {
    "before": "date_before",
    "after": "date_after",
    "contains": "str_contains",
    "toLowerCase": "str_lower",
    "length": "str_len",
    "startsWith": "str_starts",
    "concat": "str_concat",
}


class SymbolicExecutor:
    """Executes straight-line-with-branches code over symbolic state.

    ``bindings`` maps source-level variable names to IR terms (element
    atoms, broadcast inputs, accumulator symbols).  ``containers`` names
    output containers whose cells are tracked symbolically.
    """

    def __init__(
        self,
        bindings: dict[str, IRExpr],
        containers: set[str],
        element_class: Optional[str] = None,
        element_var: Optional[str] = None,
        max_paths: int = 64,
    ):
        self.bindings = bindings
        self.containers = containers
        self.element_class = element_class
        self.element_var = element_var
        self.max_paths = max_paths

    # ------------------------------------------------------------------

    def execute(self, stmts: list[ast.Stmt]) -> list[SymState]:
        """Run the statements, returning one SymState per feasible path."""
        initial = SymState(scalars=dict(self.bindings))
        states = [initial]
        for stmt in stmts:
            desugared = desugar_stmt(stmt)
            states = self._exec_stmt(desugared, states)
            if len(states) > self.max_paths:
                raise _unsupported(
                    "REP202", "path explosion in symbolic execution", stmt.line
                )
        return states

    def _exec_stmt(self, stmt: ast.Stmt, states: list[SymState]) -> list[SymState]:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                states = self._exec_stmt(inner, states)
            return states
        if isinstance(stmt, ast.VarDecl):
            out: list[SymState] = []
            for state in states:
                # A local declared without an initializer has no term:
                # ``_eval(None)`` refuses it.
                state.scalars[stmt.name] = self._eval(stmt.init, state)
                out.append(state)
            return out
        if isinstance(stmt, ast.ExprStmt):
            out = []
            for state in states:
                self._exec_expr_effect(stmt.expr, state)
                out.append(state)
            return out
        if isinstance(stmt, ast.If):
            result: list[SymState] = []
            for state in states:
                cond = normalize(self._eval(stmt.cond, state))
                then_state = state.clone()
                then_state.path.append((cond, True))
                result.extend(self._exec_stmt(stmt.then, [then_state]))
                else_state = state.clone()
                else_state.path.append((cond, False))
                if stmt.other is not None:
                    result.extend(self._exec_stmt(stmt.other, [else_state]))
                else:
                    result.append(else_state)
            return result
        if isinstance(stmt, (ast.For, ast.ForEach, ast.While, ast.DoWhile)):
            raise _unsupported(
                "REP202", "nested loop reached symbolic executor", stmt.line
            )
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Return)):
            raise _unsupported(
                "REP202",
                f"{type(stmt).__name__} not supported in symbolic execution",
                stmt.line,
            )
        raise _unsupported(
            "REP202", f"unsupported statement {type(stmt).__name__}", stmt.line
        )

    # ------------------------------------------------------------------

    def _exec_expr_effect(self, expr: ast.Expr, state: SymState) -> None:
        """Execute an expression for its side effect (assignment/mutator)."""
        if isinstance(expr, ast.Assign):
            value = self._eval(expr.value, state)
            self._store(expr.target, value, state)
            return
        if isinstance(expr, ast.MethodCall):
            receiver = expr.receiver
            if isinstance(receiver, ast.Name) and receiver.ident in self.containers:
                self._container_mutation(receiver.ident, expr, state)
                return
            raise _unsupported(
                "REP201",
                f"side-effecting call {expr.method!r} not supported symbolically",
                expr.line,
            )
        raise _unsupported(
            "REP202",
            f"expression statement {type(expr).__name__} has no modelled effect",
            expr.line,
        )

    def _container_mutation(
        self, container: str, call: ast.MethodCall, state: SymState
    ) -> None:
        if call.method == "put" and len(call.args) == 2:
            key = normalize(self._eval(call.args[0], state))
            value = self._eval(call.args[1], state)
            state.writes.setdefault(container, []).append((key, value))
            return
        if call.method == "add" and len(call.args) == 1:
            value = self._eval(call.args[0], state)
            state.appends.setdefault(container, []).append(value)
            return
        raise _unsupported(
            "REP201", f"container mutation {call.method!r} unsupported", call.line
        )

    def _store(self, target: ast.Expr, value: IRExpr, state: SymState) -> None:
        if isinstance(target, ast.Name):
            state.scalars[target.ident] = value
            return
        if isinstance(target, ast.Index):
            # a[i] on an output container.
            container, key = self._index_target(target, state)
            state.writes.setdefault(container, []).append((key, value))
            return
        raise VerificationError("unsupported assignment target in symbolic execution")

    def _index_target(self, target: ast.Index, state: SymState) -> tuple[str, IRExpr]:
        if isinstance(target.base, ast.Name):
            container = target.base.ident
            if container not in self.containers:
                raise VerificationError(
                    f"indexed store into non-output container {container!r}"
                )
            key = normalize(self._eval(target.index, state))
            return container, key
        raise VerificationError("unsupported nested index target")

    # ------------------------------------------------------------------
    # Expression translation

    def _eval(self, expr: ast.Expr, state: SymState) -> IRExpr:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value, "int")
        if isinstance(expr, ast.FloatLit):
            return Const(expr.value, "double")
        if isinstance(expr, ast.BoolLit):
            return Const(expr.value, "boolean")
        if isinstance(expr, ast.StringLit):
            return Const(expr.value, "String")
        if isinstance(expr, ast.CharLit):
            return Const(expr.value, "String")
        if isinstance(expr, ast.Name):
            if expr.ident in state.scalars:
                return state.scalars[expr.ident]
            raise VerificationError(f"unbound symbolic variable {expr.ident!r}")
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, state)
            right = self._eval(expr.right, state)
            return BinOp(expr.op, left, right)
        if isinstance(expr, ast.UnOp):
            return UnOp(expr.op, self._eval(expr.operand, state))
        if isinstance(expr, ast.Ternary):
            return Cond(
                self._eval(expr.cond, state),
                self._eval(expr.then, state),
                self._eval(expr.other, state),
            )
        if isinstance(expr, ast.FieldAccess):
            return self._eval_field(expr, state)
        if isinstance(expr, ast.Index):
            return self._eval_index(expr, state)
        if isinstance(expr, ast.MethodCall):
            return self._eval_method(expr, state)
        raise VerificationError(
            f"cannot translate {type(expr).__name__} to a symbolic term"
        )

    def _eval_field(self, expr: ast.FieldAccess, state: SymState) -> IRExpr:
        # Element struct field: l.l_discount → atom l_discount.
        if (
            isinstance(expr.base, ast.Name)
            and self.element_var is not None
            and expr.base.ident == self.element_var
        ):
            return Var(expr.field, "double")
        if isinstance(expr.base, ast.Name) and expr.base.ident in state.scalars:
            base = state.scalars[expr.base.ident]
            return CallFn("field_" + expr.field, (base,))
        raise VerificationError(f"unsupported field access {expr.field!r}")

    def _eval_index(self, expr: ast.Index, state: SymState) -> IRExpr:
        # Reading an output container cell → symbolic cell variable,
        # accounting for earlier writes on this path.
        if isinstance(expr.base, ast.Name) and expr.base.ident in self.containers:
            container = expr.base.ident
            key = normalize(self._eval(expr.index, state))
            return self._cell_value(container, key, state)
        # Read of a broadcast (input) container at a data-dependent index.
        if isinstance(expr.base, ast.Name) and expr.base.ident in self.bindings:
            base_term = self.bindings[expr.base.ident]
            if isinstance(base_term, Var) and base_term.kind in ("container", "other"):
                index_term = self._eval(expr.index, state)
                return CallFn("lookup", (base_term, index_term))
        raise VerificationError("unsupported symbolic index read")

    def _cell_value(self, container: str, key: IRExpr, state: SymState) -> IRExpr:
        for written_key, value in reversed(state.writes.get(container, [])):
            if term_key(written_key) == term_key(key):
                return value
        ref = CellRef(container, key)
        state.cell_reads[ref.name] = ref
        return Var(ref.name, "double")

    def _eval_method(self, expr: ast.MethodCall, state: SymState) -> IRExpr:
        receiver = expr.receiver
        args = expr.args
        # Static library call (container reads take precedence).
        if (
            isinstance(receiver, ast.Name)
            and receiver.ident not in state.scalars
            and receiver.ident not in self.containers
        ):
            key = (receiver.ident, expr.method)
            if key in _METHOD_TO_IR:
                terms = tuple(self._eval(a, state) for a in args)
                return CallFn(_METHOD_TO_IR[key], terms)
            raise VerificationError(f"unmodelled static call {key}")
        # Map reads on output containers.
        if isinstance(receiver, ast.Name) and receiver.ident in self.containers:
            container = receiver.ident
            if expr.method == "getOrDefault" and len(args) == 2:
                key = normalize(self._eval(args[0], state))
                return self._cell_value(container, key, state)
            raise VerificationError(
                f"container method {expr.method!r} unsupported in read position"
            )
        receiver_term = self._eval(receiver, state)
        arg_terms = tuple(self._eval(a, state) for a in args)
        if expr.method == "equals":
            return BinOp("==", receiver_term, arg_terms[0])
        if expr.method in _INSTANCE_TO_IR:
            return CallFn(_INSTANCE_TO_IR[expr.method], (receiver_term, *arg_terms))
        raise VerificationError(f"unmodelled instance method {expr.method!r}")

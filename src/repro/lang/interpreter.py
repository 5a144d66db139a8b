"""Tree-walking interpreter for the mini-Java frontend.

This is the reference semantics of sequential programs.  It is used by:

* the bounded model checker — to obtain the expected outputs of a code
  fragment on a concrete program state;
* the engine — to run sequential baselines (with operation counters used
  to calibrate simulated runtimes);
* the workloads — to sanity-check benchmark programs against Python oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import InterpreterError
from . import ast_nodes as ast
from . import stdlib
from .types import (
    ArrayType,
    ClassType,
    JType,
    ListType,
    MapType,
    PrimitiveType,
    SetType,
)
from .values import Instance


@dataclass
class Counters:
    """Dynamic operation counts, used to calibrate simulated runtimes."""

    arith_ops: int = 0
    comparisons: int = 0
    memory_ops: int = 0
    calls: int = 0
    loop_iterations: int = 0

    @property
    def total(self) -> int:
        return (
            self.arith_ops + self.comparisons + self.memory_ops + self.calls
        )

    def reset(self) -> None:
        self.arith_ops = 0
        self.comparisons = 0
        self.memory_ops = 0
        self.calls = 0
        self.loop_iterations = 0


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


@dataclass
class Environment:
    """A chained scope of variable bindings."""

    parent: Optional["Environment"] = None
    bindings: dict[str, Any] = field(default_factory=dict)

    def define(self, name: str, value: Any) -> None:
        self.bindings[name] = value

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise InterpreterError(f"undefined variable {name!r}")

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        raise InterpreterError(f"assignment to undefined variable {name!r}")

    def contains(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def flat(self) -> dict[str, Any]:
        """All visible bindings, innermost scopes winning."""
        chain: list[Environment] = []
        env: Optional[Environment] = self
        while env is not None:
            chain.append(env)
            env = env.parent
        merged: dict[str, Any] = {}
        for scope in reversed(chain):
            merged.update(scope.bindings)
        return merged


_INT_TYPES = ("int", "long", "char")


def default_value(jtype: JType) -> Any:
    """The Java default value for a declared-but-uninitialized variable."""
    if isinstance(jtype, PrimitiveType):
        if jtype.name in _INT_TYPES:
            return 0
        if jtype.name in ("double", "float"):
            return 0.0
        if jtype.name == "boolean":
            return False
        if jtype.name == "String":
            return None
        return None
    if isinstance(jtype, (ArrayType, ListType)):
        return None
    if isinstance(jtype, SetType):
        return None
    if isinstance(jtype, MapType):
        return None
    return None


class Interpreter:
    """Executes mini-Java functions and statements."""

    def __init__(self, program: Optional[ast.Program] = None, max_steps: int = 50_000_000):
        self.program = program or ast.Program()
        self.counters = Counters()
        self.max_steps = max_steps
        self._steps = 0

    # ------------------------------------------------------------------
    # Entry points

    def call_function(self, name: str, args: list[Any]) -> Any:
        """Call a declared function with concrete argument values."""
        func = self.program.function(name)
        if len(args) != len(func.params):
            raise InterpreterError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        env = Environment()
        for param, value in zip(func.params, args):
            env.define(param.name, value)
        self.counters.calls += 1
        try:
            self.exec_block(func.body, Environment(parent=env))
        except _ReturnSignal as signal:
            return signal.value
        return None

    def run_fragment(self, stmts: list[ast.Stmt], env: Environment) -> None:
        """Execute a statement list (a code fragment) in the given env."""
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def run_statements(self, stmts: list[ast.Stmt], env: Environment) -> None:
        """``run_fragment``, where a ``return`` ends the list early."""
        try:
            self.run_fragment(stmts, env)
        except _ReturnSignal:
            pass

    # ------------------------------------------------------------------
    # Statements

    def exec_block(self, block: ast.Block, env: Environment) -> None:
        inner = Environment(parent=env)
        for stmt in block.stmts:
            self.exec_stmt(stmt, inner)

    def exec_stmt(self, stmt: ast.Stmt, env: Environment) -> None:
        self._tick()
        if isinstance(stmt, ast.VarDecl):
            value = (
                self.eval_expr(stmt.init, env)
                if stmt.init is not None
                else default_value(stmt.type)
            )
            value = self._coerce(stmt.type, value)
            env.define(stmt.name, value)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval_expr(stmt.expr, env)
        elif isinstance(stmt, ast.Block):
            self.exec_block(stmt, env)
        elif isinstance(stmt, ast.If):
            if self.eval_expr(stmt.cond, env):
                self.exec_stmt(stmt.then, Environment(parent=env))
            elif stmt.other is not None:
                self.exec_stmt(stmt.other, Environment(parent=env))
        elif isinstance(stmt, ast.While):
            while self.eval_expr(stmt.cond, env):
                self.counters.loop_iterations += 1
                try:
                    self.exec_stmt(stmt.body, Environment(parent=env))
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                self.counters.loop_iterations += 1
                try:
                    self.exec_stmt(stmt.body, Environment(parent=env))
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not self.eval_expr(stmt.cond, env):
                    break
        elif isinstance(stmt, ast.For):
            loop_env = Environment(parent=env)
            for init in stmt.init:
                self.exec_stmt(init, loop_env)
            while stmt.cond is None or self.eval_expr(stmt.cond, loop_env):
                self.counters.loop_iterations += 1
                try:
                    self.exec_stmt(stmt.body, Environment(parent=loop_env))
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                for update in stmt.update:
                    self.eval_expr(update, loop_env)
        elif isinstance(stmt, ast.ForEach):
            iterable = self.eval_expr(stmt.iterable, env)
            if iterable is None:
                raise InterpreterError("iterating a null collection", )
            items = sorted(iterable) if isinstance(iterable, set) else iterable
            for item in items:
                self.counters.loop_iterations += 1
                body_env = Environment(parent=env)
                body_env.define(stmt.var_name, item)
                try:
                    self.exec_stmt(stmt.body, body_env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.Return):
            value = self.eval_expr(stmt.value, env) if stmt.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        else:
            raise InterpreterError(f"unknown statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # Expressions

    def eval_expr(self, expr: ast.Expr, env: Environment) -> Any:
        self._tick()
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise InterpreterError(f"unknown expression {type(expr).__name__}")
        return method(expr, env)

    def _eval_IntLit(self, expr: ast.IntLit, env: Environment) -> int:
        return expr.value

    def _eval_FloatLit(self, expr: ast.FloatLit, env: Environment) -> float:
        return expr.value

    def _eval_BoolLit(self, expr: ast.BoolLit, env: Environment) -> bool:
        return expr.value

    def _eval_StringLit(self, expr: ast.StringLit, env: Environment) -> str:
        return expr.value

    def _eval_CharLit(self, expr: ast.CharLit, env: Environment) -> str:
        return expr.value

    def _eval_NullLit(self, expr: ast.NullLit, env: Environment) -> None:
        return None

    def _eval_Name(self, expr: ast.Name, env: Environment) -> Any:
        self.counters.memory_ops += 1
        return env.lookup(expr.ident)

    def _eval_BinOp(self, expr: ast.BinOp, env: Environment) -> Any:
        op = expr.op
        if op == "&&":
            self.counters.comparisons += 1
            return bool(self.eval_expr(expr.left, env)) and bool(
                self.eval_expr(expr.right, env)
            )
        if op == "||":
            self.counters.comparisons += 1
            return bool(self.eval_expr(expr.left, env)) or bool(
                self.eval_expr(expr.right, env)
            )
        left = self.eval_expr(expr.left, env)
        right = self.eval_expr(expr.right, env)
        return self.apply_binop(op, left, right)

    def apply_binop(self, op: str, left: Any, right: Any) -> Any:
        """Apply a (strict) binary operator with Java semantics."""
        if op in ("==", "!="):
            self.counters.comparisons += 1
            equal = left == right
            return equal if op == "==" else not equal
        if op in ("<", ">", "<=", ">="):
            self.counters.comparisons += 1
            if op == "<":
                return left < right
            if op == ">":
                return left > right
            if op == "<=":
                return left <= right
            return left >= right
        self.counters.arith_ops += 1
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return stdlib._java_str(left) + stdlib._java_str(right)
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if self._both_int(left, right):
                return stdlib._int_div(left, right)
            if right == 0:
                raise InterpreterError("float division by zero")
            return left / right
        if op == "%":
            if self._both_int(left, right):
                return stdlib._int_rem(left, right)
            return left - right * int(left / right) if right != 0 else 0.0
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        raise InterpreterError(f"unknown binary operator {op!r}")

    @staticmethod
    def _both_int(left: Any, right: Any) -> bool:
        return (
            isinstance(left, int)
            and isinstance(right, int)
            and not isinstance(left, bool)
            and not isinstance(right, bool)
        )

    def _eval_UnOp(self, expr: ast.UnOp, env: Environment) -> Any:
        operand = self.eval_expr(expr.operand, env)
        self.counters.arith_ops += 1
        if expr.op == "-":
            return -operand
        if expr.op == "!":
            return not operand
        if expr.op == "~":
            return ~operand
        raise InterpreterError(f"unknown unary operator {expr.op!r}")

    def _eval_Ternary(self, expr: ast.Ternary, env: Environment) -> Any:
        self.counters.comparisons += 1
        if self.eval_expr(expr.cond, env):
            return self.eval_expr(expr.then, env)
        return self.eval_expr(expr.other, env)

    def _eval_Index(self, expr: ast.Index, env: Environment) -> Any:
        base = self.eval_expr(expr.base, env)
        index = self.eval_expr(expr.index, env)
        self.counters.memory_ops += 1
        if base is None:
            raise InterpreterError("indexing a null array")
        try:
            if isinstance(base, dict):
                return base[index]
            if index < 0 or index >= len(base):
                raise InterpreterError(f"index {index} out of bounds (len {len(base)})")
            return base[index]
        except (TypeError, KeyError) as exc:
            raise InterpreterError(f"bad index operation: {exc}") from exc

    def _eval_FieldAccess(self, expr: ast.FieldAccess, env: Environment) -> Any:
        if isinstance(expr.base, ast.Name) and not env.contains(expr.base.ident):
            namespace = expr.base.ident
            if expr.field == "length":
                raise InterpreterError(f"undefined variable {namespace!r}")
            if stdlib.has_static_field(namespace, expr.field):
                return stdlib.static_field(namespace, expr.field)
            if namespace in stdlib.STATIC_NAMESPACES:
                # e.g. System.out — return an opaque handle.
                return Instance("_Namespace", {"name": f"{namespace}.{expr.field}"})
        base = self.eval_expr(expr.base, env)
        self.counters.memory_ops += 1
        if expr.field == "length":
            if isinstance(base, (list, str)):
                return len(base)
            raise InterpreterError("'.length' on non-array value")
        if isinstance(base, Instance):
            return base.get(expr.field)
        raise InterpreterError(f"field access {expr.field!r} on {type(base).__name__}")

    def _eval_Call(self, expr: ast.Call, env: Environment) -> Any:
        args = [self.eval_expr(arg, env) for arg in expr.args]
        self.counters.calls += 1
        try:
            self.program.function(expr.func)
        except KeyError:
            raise InterpreterError(f"call to undefined function {expr.func!r}") from None
        return self.call_function(expr.func, args)

    def _eval_MethodCall(self, expr: ast.MethodCall, env: Environment) -> Any:
        self.counters.calls += 1
        # Static namespace call (Math.abs, Util.parseDate, ...)
        if isinstance(expr.receiver, ast.Name) and not env.contains(expr.receiver.ident):
            namespace = expr.receiver.ident
            if namespace in stdlib.STATIC_NAMESPACES:
                args = [self.eval_expr(arg, env) for arg in expr.args]
                return stdlib.call_static_method(namespace, expr.method, args)
            raise InterpreterError(f"undefined receiver {namespace!r}")
        # System.out.println(...) and friends — evaluate args, discard.
        if (
            isinstance(expr.receiver, ast.FieldAccess)
            and isinstance(expr.receiver.base, ast.Name)
            and expr.receiver.base.ident == "System"
        ):
            for arg in expr.args:
                self.eval_expr(arg, env)
            return None
        receiver = self.eval_expr(expr.receiver, env)
        args = [self.eval_expr(arg, env) for arg in expr.args]
        return stdlib.call_instance_method(receiver, expr.method, args)

    def _eval_NewArray(self, expr: ast.NewArray, env: Environment) -> Any:
        dims = [self.eval_expr(d, env) if d is not None else None for d in expr.dims]
        return self._alloc_array(expr.element_type, dims)

    def _alloc_array(self, element_type: JType, dims: list[Optional[int]]) -> Any:
        if not dims or dims[0] is None:
            return None
        size = dims[0]
        if size < 0:
            raise InterpreterError("negative array size")
        if len(dims) == 1:
            return [default_value(element_type) for _ in range(size)]
        return [self._alloc_array(element_type, dims[1:]) for _ in range(size)]

    def _eval_NewObject(self, expr: ast.NewObject, env: Environment) -> Any:
        new_type = expr.type
        if isinstance(new_type, ListType):
            return []
        if isinstance(new_type, SetType):
            return set()
        if isinstance(new_type, MapType):
            return {}
        if isinstance(new_type, ClassType):
            args = [self.eval_expr(arg, env) for arg in expr.args]
            try:
                decl = self.program.class_decl(new_type.name)
            except KeyError:
                raise InterpreterError(f"unknown class {new_type.name!r}") from None
            if args and len(args) != len(decl.fields):
                raise InterpreterError(
                    f"{new_type.name} constructor expects {len(decl.fields)} args"
                )
            fields = {
                f.name: (args[i] if args else default_value(f.type))
                for i, f in enumerate(decl.fields)
            }
            return Instance(new_type.name, fields)
        raise InterpreterError(f"cannot instantiate {new_type}")

    def _eval_Assign(self, expr: ast.Assign, env: Environment) -> Any:
        if expr.op == "=":
            value = self.eval_expr(expr.value, env)
        else:
            current = self.eval_expr(expr.target, env)
            rhs = self.eval_expr(expr.value, env)
            value = self.apply_binop(expr.op[:-1], current, rhs)
        self._store(expr.target, value, env)
        return value

    def _eval_IncDec(self, expr: ast.IncDec, env: Environment) -> Any:
        current = self.eval_expr(expr.target, env)
        self.counters.arith_ops += 1
        updated = current + 1 if expr.op == "++" else current - 1
        self._store(expr.target, updated, env)
        return updated if expr.prefix else current

    def _eval_Cast(self, expr: ast.Cast, env: Environment) -> Any:
        value = self.eval_expr(expr.operand, env)
        return self._coerce(expr.type, value)

    def _store(self, target: ast.Expr, value: Any, env: Environment) -> None:
        self.counters.memory_ops += 1
        if isinstance(target, ast.Name):
            env.assign(target.ident, value)
        elif isinstance(target, ast.Index):
            base = self.eval_expr(target.base, env)
            index = self.eval_expr(target.index, env)
            if base is None:
                raise InterpreterError("store into null array")
            if isinstance(base, dict):
                base[index] = value
            else:
                if index < 0 or index >= len(base):
                    raise InterpreterError(
                        f"store index {index} out of bounds (len {len(base)})"
                    )
                base[index] = value
        elif isinstance(target, ast.FieldAccess):
            base = self.eval_expr(target.base, env)
            if not isinstance(base, Instance):
                raise InterpreterError("field store on non-object")
            base.set(target.field, value)
        else:
            raise InterpreterError("invalid assignment target")

    @staticmethod
    def _coerce(jtype: JType, value: Any) -> Any:
        if value is None or not isinstance(jtype, PrimitiveType):
            return value
        if jtype.name in _INT_TYPES and isinstance(value, float):
            return int(value)
        if jtype.name in ("double", "float") and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpreterError("interpreter step budget exceeded (possible infinite loop)")


def run_function(source_or_program, name: str, args: list[Any]) -> Any:
    """Parse (if needed) and run a function; convenience for tests."""
    from .parser import parse_program

    program = (
        source_or_program
        if isinstance(source_or_program, ast.Program)
        else parse_program(source_or_program)
    )
    return Interpreter(program).call_function(name, args)

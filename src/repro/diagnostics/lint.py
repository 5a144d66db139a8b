"""Repo-invariant concurrency/robustness lint over ``src/repro`` itself.

AST-based (Python's own ``ast``), encoding invariants this codebase has
been bitten by or must never regress on:

* **LNT101** — a lock ``.acquire()`` outside a ``with`` statement or a
  ``try``/``finally`` that releases it: an exception between acquire and
  release deadlocks every other worker.
* **LNT102** — a broad ``except Exception``/``BaseException`` (or bare
  ``except:``) whose body only swallows, on a worker/daemon path: the
  PR-4 bug class where a dead worker looked like an idle one.
* **LNT103** — a mutable literal stored as a class attribute in engine/
  codegen/serve classes: instances (including unpickled pool payload
  copies) silently share state.
* **LNT104** — direct ``time``/``random`` reads in planner-priced paths:
  cost estimates must be deterministic and replayable.  No marker
  comment exempts a line.

Run as ``python -m repro.diagnostics.lint [path]``; exits non-zero when
findings exist.  The CI lint job runs it over ``src/repro``, and
``tests/test_diagnostics.py`` self-runs it so the invariant is local too.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Module path fragments that are worker/daemon paths (LNT102 scope):
#: an exception swallowed here detaches a worker or wedges a daemon.
_WORKER_PATHS = (
    "engine/",
    "serve/",
    "graph/executor.py",
    "pipeline/scheduler.py",
    "session.py",
)

#: Module path fragments whose class instances may ship to pools (LNT103).
_PAYLOAD_PATHS = ("engine/", "codegen/", "serve/")

#: Module path fragments that are planner-priced paths (LNT104): the
#: numbers computed here decide plans, so they must be deterministic.
_PRICED_PATHS = ("planner/", "cost/")

_WALL_CLOCK_CALLS = frozenset(
    {("time", "time"), ("time", "perf_counter"), ("time", "monotonic")}
)


@dataclass(frozen=True)
class LintFinding:
    """One lint violation: stable code, location, message."""

    code: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _matches(relative: str, fragments: tuple[str, ...]) -> bool:
    return any(fragment in relative for fragment in fragments)


class _FileLinter(ast.NodeVisitor):
    def __init__(self, relative: str) -> None:
        self.relative = relative
        self.findings: list[LintFinding] = []
        # Call nodes sanctioned as with-items or try/finally acquires.
        self._sanctioned_acquires: set[int] = set()
        self._class_depth = 0

    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            LintFinding(
                code=code,
                path=self.relative,
                line=getattr(node, "lineno", 0),
                message=message,
            )
        )

    # ---- LNT101: lock discipline ---------------------------------

    @staticmethod
    def _is_acquire(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        )

    @staticmethod
    def _contains_release(nodes: list[ast.stmt]) -> bool:
        for stmt in nodes:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                ):
                    return True
        return False

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if self._is_acquire(item.context_expr):
                self._sanctioned_acquires.add(id(item.context_expr))
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        # `lock.acquire()` immediately before/inside a try whose finally
        # releases is the accepted manual pattern.
        if node.finalbody and self._contains_release(node.finalbody):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if self._is_acquire(sub):
                        self._sanctioned_acquires.add(id(sub))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_acquire(node) and id(node) not in self._sanctioned_acquires:
            self._emit(
                "LNT101",
                node,
                "lock acquired outside a with-statement (or try/finally "
                "release); an exception here leaks the lock",
            )
        self._check_wall_clock(node)
        self.generic_visit(node)

    # ---- LNT102: swallowed broad excepts on worker paths ---------

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        """Body is only pass/continue/ellipsis — the exception vanishes."""
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if broad and self._swallows(node):
            if node.type is None or _matches(self.relative, _WORKER_PATHS):
                if isinstance(node.type, ast.Name):
                    kind = f"except {node.type.id}"
                else:
                    kind = "bare except"
                self._emit(
                    "LNT102",
                    node,
                    f"{kind} silently swallows exceptions on a worker/daemon "
                    "path; a dead worker becomes indistinguishable from an "
                    "idle one",
                )
        self.generic_visit(node)

    # ---- LNT103: shared mutable class-attribute state ------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _matches(self.relative, _PAYLOAD_PATHS):
            for stmt in node.body:
                value: ast.expr | None = None
                if isinstance(stmt, ast.Assign):
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                if value is not None and isinstance(
                    value, (ast.List, ast.Dict, ast.Set)
                ):
                    self._emit(
                        "LNT103",
                        stmt,
                        "mutable literal as a class attribute: every instance "
                        "(and every unpickled pool copy) shares one object",
                    )
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    # ---- LNT104: wall-clock / RNG in priced paths ----------------

    def _check_wall_clock(self, node: ast.Call) -> None:
        if not _matches(self.relative, _PRICED_PATHS):
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or not isinstance(
            func.value, ast.Name
        ):
            return
        pair = (func.value.id, func.attr)
        if pair in _WALL_CLOCK_CALLS:
            self._emit(
                "LNT104",
                node,
                f"direct {pair[0]}.{pair[1]}() in a planner-priced path makes "
                "cost estimates nondeterministic; price from counts and "
                "constants instead",
            )
        elif pair[0] == "random":
            self._emit(
                "LNT104",
                node,
                "module-level random in a planner-priced path; use a seeded "
                "random.Random instance so plans replay deterministically",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)


def lint_file(path: Path, root: Path) -> list[LintFinding]:
    """Lint one Python source file; returns findings (possibly empty)."""
    try:
        relative = str(path.relative_to(root))
    except ValueError:
        relative = str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintFinding(
                code="LNT102",
                path=relative,
                line=exc.lineno or 0,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    linter = _FileLinter(relative)
    linter.visit(tree)
    return linter.findings


def lint_tree(root: Path) -> list[LintFinding]:
    """Lint every ``*.py`` under ``root`` (skipping caches)."""
    findings: list[LintFinding] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        findings.extend(lint_file(path, root))
    return findings


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args:
        root = Path(args[0])
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
    if not root.exists():
        print(f"lint: no such path: {root}", file=sys.stderr)
        return 2
    findings = lint_tree(root) if root.is_dir() else lint_file(root, root.parent)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"lint: {len(findings)} finding(s) in {root}", file=sys.stderr)
        return 1
    print(f"lint: clean ({root})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = ["LintFinding", "lint_file", "lint_tree", "main"]

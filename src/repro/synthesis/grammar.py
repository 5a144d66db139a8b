"""Search-space grammar generation (paper sections 3.2, 4.2, Appendix D).

A grammar is *specialized to the code fragment*: its production rules use
exactly the operators, constants, library methods, and variables that the
program analyzer found in the input code, plus terms *harvested* from
symbolic execution of the loop body (Casper's analyzer likewise seeds its
Sketch generators from the fragment — Appendix D shows the Q6 grammar
containing only that query's constants and fields).

A :class:`GrammarClass` finitizes the space with recursive bounds — number
of MapReduce operations, number of emits per λm, key/value tuple widths,
and expression depth (the four features of section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang.analysis.fragments import FragmentAnalysis
from ..ir.nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    IRExpr,
    ReduceLambda,
    TupleExpr,
    UnOp,
    Var,
    walk_expr,
)
from ..verification.algebra import normalize, term_key
from ..verification.symexec import SymState


@dataclass(frozen=True)
class GrammarClass:
    """One class in the incremental grammar hierarchy (Fig. 6).

    ``shapes`` lists allowed stage sequences ("m", "mr", "mrm");
    ``max_emits`` bounds emits per map stage; ``max_tuple`` bounds key and
    value tuple widths (1 = scalars only); ``max_depth`` bounds expression
    size; ``allow_guards`` enables conditional emits.
    """

    name: str
    shapes: tuple[str, ...]
    max_emits: int = 1
    max_tuple: int = 1
    max_depth: int = 2
    allow_guards: bool = False
    compositional: bool = True  # include depth-bounded composed expressions

    def subsumes(self, other: "GrammarClass") -> bool:
        return (
            set(other.shapes) <= set(self.shapes)
            and other.max_emits <= self.max_emits
            and other.max_tuple <= self.max_tuple
            and other.max_depth <= self.max_depth
            and (self.allow_guards or not other.allow_guards)
        )


_NUMERIC_KINDS = ("int", "double")


class NormalKeys:
    """``term_key(normalize(expr))``, computed once per expression object.

    The search asks for the normal key of the same pool terms over and
    over — every ``pool_for`` / ``key_pool`` call re-dedupes, and so does
    each composition level.  Each :class:`ExpressionPools` owns one, so it
    lives as long as one grammar class of one search: never shared
    between the threads that compile fragments side by side, never
    outliving the search (a resident daemon must not grow it).  The
    classes of a search build fresh terms, so a memo spanning them would
    hold more and answer almost nothing more.

    Keyed by ``id(expr)``; each entry holds the expression, so the id
    cannot be recycled for another one while the entry lives.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[IRExpr, str]] = {}

    def key(self, expr: IRExpr) -> str:
        entry = self._entries.get(id(expr))
        if entry is None:
            entry = self._entries[id(expr)] = (expr, term_key(normalize(expr)))
        return entry[1]

    def dedupe(self, exprs: list[IRExpr]) -> list[IRExpr]:
        """``exprs`` without later terms sharing an earlier one's normal form."""
        seen: set[str] = set()
        result = []
        for expr in exprs:
            key = self.key(expr)
            if key not in seen:
                seen.add(key)
                result.append(expr)
        return result


@dataclass
class ExpressionPools:
    """Typed candidate expression pools derived from a fragment."""

    numeric: list[IRExpr] = field(default_factory=list)
    boolean: list[IRExpr] = field(default_factory=list)
    string: list[IRExpr] = field(default_factory=list)
    keys: list[IRExpr] = field(default_factory=list)
    harvested_numeric: list[IRExpr] = field(default_factory=list)
    harvested_boolean: list[IRExpr] = field(default_factory=list)
    harvested_keys: list[IRExpr] = field(default_factory=list)
    harvested_string: list[IRExpr] = field(default_factory=list)
    normal_keys: NormalKeys = field(default_factory=NormalKeys, repr=False, compare=False)

    def pool_for(self, kind: str, harvested_first: bool = True) -> list[IRExpr]:
        if kind == "boolean":
            primary, secondary = self.harvested_boolean, self.boolean
        elif kind == "String":
            primary, secondary = self.harvested_string, self.string
        else:
            primary, secondary = self.harvested_numeric, self.numeric
        ordered = primary + secondary if harvested_first else secondary + primary
        return self.normal_keys.dedupe(ordered)

    def key_pool(self) -> list[IRExpr]:
        return self.normal_keys.dedupe(self.harvested_keys + self.keys)


def _kind_of_jtype(jtype) -> str:
    name = getattr(jtype, "name", None)
    if name in ("double", "float"):
        return "double"
    if name == "boolean":
        return "boolean"
    if name == "String":
        return "String"
    if name in ("int", "long", "char"):
        return "int"
    return "other"


_METHOD_FN = {
    "Math.abs": ("abs", 1),
    "Math.min": ("min", 2),
    "Math.max": ("max", 2),
    "Math.sqrt": ("sqrt", 1),
    "Math.pow": ("pow", 2),
    "Math.exp": ("exp", 1),
    "Math.log": ("log", 1),
    "Math.floor": ("floor", 1),
    "Math.ceil": ("ceil", 1),
}

_ARITH_OPS = ("+", "-", "*", "/", "%")
_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")


class GrammarBuilder:
    """Builds expression pools for a fragment under a grammar class."""

    def __init__(
        self,
        analysis: FragmentAnalysis,
        grammar_class: GrammarClass,
        sym_paths: Optional[list[SymState]] = None,
        pool_cap: int = 160,
    ):
        self.analysis = analysis
        self.grammar_class = grammar_class
        self.sym_paths = sym_paths or []
        self.pool_cap = pool_cap

    # ------------------------------------------------------------------

    def build(self) -> ExpressionPools:
        pools = ExpressionPools()
        self._add_atoms(pools)
        self._add_harvested(pools)
        if self.grammar_class.compositional:
            self._compose(pools)
        pools.numeric = pools.numeric[: self.pool_cap]
        pools.boolean = pools.boolean[: self.pool_cap]
        pools.string = pools.string[: self.pool_cap]
        return pools

    # ------------------------------------------------------------------

    def _atom_vars(self) -> list[tuple[str, str]]:
        """(name, kind) for element atoms then broadcast scalar inputs."""
        atoms: list[tuple[str, str]] = []
        view = self.analysis.view
        for fld in view.element_fields:
            atoms.append((fld.name, _kind_of_jtype(fld.jtype)))
        for name, jtype in self.analysis.input_vars.items():
            if name in view.sources:
                continue
            kind = _kind_of_jtype(jtype)
            if kind != "other":
                atoms.append((name, kind))
        for name, value in self.analysis.prelude_constants.items():
            if name in self.analysis.output_vars:
                continue
            if isinstance(value, bool):
                atoms.append((name, "boolean"))
            elif isinstance(value, (int, float)):
                atoms.append((name, "double" if isinstance(value, float) else "int"))
            elif isinstance(value, str):
                atoms.append((name, "String"))
        return atoms

    def _add_atoms(self, pools: ExpressionPools) -> None:
        view = self.analysis.view
        for name, kind in self._atom_vars():
            expr = Var(name, kind)
            if kind in _NUMERIC_KINDS:
                pools.numeric.append(expr)
            elif kind == "boolean":
                pools.boolean.append(expr)
            elif kind == "String":
                pools.string.append(expr)
        # Constants harvested by the scan, plus small synthesizer "holes".
        for value, jtype in self.analysis.scan.constants:
            kind = _kind_of_jtype(jtype)
            if kind in _NUMERIC_KINDS:
                pools.numeric.append(Const(value, kind))
            elif kind == "String":
                pools.string.append(Const(value, "String"))
        for hole in (0, 1):
            pools.numeric.append(Const(hole, "int"))
        # Key candidates: index atoms, then data-valued atoms.
        for name in view.index_vars:
            pools.keys.append(Var(name, "int"))
        for fld in view.element_fields:
            kind = _kind_of_jtype(fld.jtype)
            if fld.name not in view.index_vars and kind in ("int", "String"):
                pools.keys.append(Var(fld.name, kind))

    # ------------------------------------------------------------------

    def _add_harvested(self, pools: ExpressionPools) -> None:
        """Mine symbolic-execution paths for candidate terms.

        The update term of an accumulator on some path typically has shape
        ``λr(acc, value)``; stripping the accumulator yields the emitted
        value candidate.  Path conditions (with accumulator-dependent atoms
        dropped) are prime guard candidates.
        """
        acc_prefix = "__acc_"
        cell_prefix = "__cell("

        def acc_free(expr: IRExpr) -> bool:
            return not any(
                isinstance(node, Var)
                and (node.name.startswith(acc_prefix) or node.name.startswith(cell_prefix))
                for node in walk_expr(expr)
            )

        for state in self.sym_paths:
            # Guards from path conditions.
            atoms = [
                (atom if value else UnOp("!", atom))
                for atom, value in state.path
                if acc_free(atom)
            ]
            for literal in atoms:
                pools.harvested_boolean.append(normalize(literal))
            if len(atoms) > 1:
                conj: IRExpr = atoms[0]
                for literal in atoms[1:]:
                    conj = BinOp("&&", conj, literal)
                pools.harvested_boolean.append(normalize(conj))
            # Values from accumulator updates and container writes.  The
            # executor keys updated scalars by the *output variable* name
            # (their initial binding is the __acc_ symbol).
            for name, term in state.scalars.items():
                if name not in self.analysis.output_vars:
                    continue
                for candidate in self._value_candidates(term, acc_free):
                    self._file_by_kind(pools, candidate)
            for writes in state.writes.values():
                for key_term, value_term in writes:
                    if acc_free(key_term):
                        pools.harvested_keys.append(normalize(key_term))
                    for candidate in self._value_candidates(value_term, acc_free):
                        self._file_by_kind(pools, candidate)
            for appends in state.appends.values():
                for value_term in appends:
                    if acc_free(value_term):
                        normalized = normalize(value_term)
                        pools.harvested_keys.append(normalized)
                        self._file_by_kind(pools, normalized)

    def _value_candidates(self, term: IRExpr, acc_free) -> list[IRExpr]:
        """Acc-free subterms of an update term, largest first."""
        candidates: list[IRExpr] = []
        for node in walk_expr(term):
            if isinstance(node, (Const,)):
                continue
            if acc_free(node):
                candidates.append(normalize(node))
        # Also the whole term when acc-free (map-only shapes).
        return candidates

    @staticmethod
    def _file_by_kind(pools: ExpressionPools, expr: IRExpr) -> None:
        kind = _guess_kind(expr)
        if kind == "boolean":
            pools.harvested_boolean.append(expr)
        elif kind == "String":
            pools.harvested_string.append(expr)
        elif kind in _NUMERIC_KINDS:
            pools.harvested_numeric.append(expr)

    # ------------------------------------------------------------------

    def _compose(self, pools: ExpressionPools) -> None:
        """Depth-bounded composition using the fragment's own operators."""
        scan = self.analysis.scan
        depth = self.grammar_class.max_depth
        arith = [op for op in _ARITH_OPS if op in scan.operators]
        if not arith:
            arith = ["+"]
        compares = [op for op in _COMPARE_OPS if op in scan.operators]
        fns = [
            _METHOD_FN[m] for m in sorted(scan.methods) if m in _METHOD_FN
        ]

        dedupe = pools.normal_keys.dedupe
        level = dedupe(pools.harvested_numeric + pools.numeric)
        numeric_all = list(level)
        for _ in range(1, depth):
            new_level: list[IRExpr] = []
            base = numeric_all[:24]
            base_keys = [term_key(a) for a in base]
            for op in arith:
                for i, a in enumerate(base):
                    for j, b in enumerate(base):
                        if op in ("+", "*") and base_keys[i] > base_keys[j]:
                            continue  # commutative symmetry pruning
                        if _trivial(op, a, b):
                            continue
                        new_level.append(BinOp(op, a, b))
                        if len(new_level) > self.pool_cap:
                            break
                    if len(new_level) > self.pool_cap:
                        break
            for fn_name, arity in fns:
                if arity == 1:
                    for a in base[:16]:
                        new_level.append(CallFn(fn_name, (a,)))
                else:
                    for i, a in enumerate(base[:12]):
                        for b in base[: i + 1]:
                            new_level.append(CallFn(fn_name, (a, b)))
            new_level = dedupe(new_level)[: self.pool_cap]
            numeric_all = dedupe(numeric_all + new_level)
            level = new_level
        pools.numeric = dedupe(pools.numeric + numeric_all)[: self.pool_cap * 2]

        if compares:
            bools: list[IRExpr] = []
            base = dedupe(pools.harvested_numeric + pools.numeric)[:20]
            base_keys = [term_key(a) for a in base]
            for op in compares:
                for i, a in enumerate(base):
                    for j, b in enumerate(base):
                        if base_keys[i] == base_keys[j]:
                            continue
                        bools.append(BinOp(op, a, b))
                        if len(bools) > self.pool_cap:
                            break
                    if len(bools) > self.pool_cap:
                        break
            pools.boolean = dedupe(pools.boolean + bools)[: self.pool_cap]

        if pools.string and "==" in scan.operators or "equals" in scan.methods:
            eqs: list[IRExpr] = []
            strings = dedupe(pools.harvested_string + pools.string)[:10]
            for i, a in enumerate(strings):
                for b in strings[i + 1 :]:
                    eqs.append(BinOp("==", a, b))
            pools.boolean = dedupe(pools.boolean + eqs)[: self.pool_cap]


def _trivial(op: str, a: IRExpr, b: IRExpr) -> bool:
    if isinstance(b, Const) and b.value in (0, 0.0) and op in ("+", "-", "/", "%"):
        return True
    if isinstance(a, Const) and a.value in (0, 0.0) and op in ("+",):
        return True
    if isinstance(b, Const) and b.value in (1, 1.0) and op in ("*", "/", "%"):
        return True
    if isinstance(a, Const) and a.value in (1, 1.0) and op == "*":
        return True
    if isinstance(a, Const) and isinstance(b, Const):
        return True  # constant-constant folds to another constant
    return False


def _guess_kind(expr: IRExpr) -> str:
    if isinstance(expr, Const):
        return expr.kind
    if isinstance(expr, Var):
        return expr.kind
    if isinstance(expr, BinOp):
        if expr.op in ("&&", "||") or expr.op in _COMPARE_OPS:
            return "boolean"
        left = _guess_kind(expr.left)
        right = _guess_kind(expr.right)
        if "String" in (left, right):
            return "String"
        if "double" in (left, right):
            return "double"
        return "int"
    if isinstance(expr, UnOp):
        return "boolean" if expr.op == "!" else _guess_kind(expr.operand)
    if isinstance(expr, Cond):
        return _guess_kind(expr.then)
    if isinstance(expr, CallFn):
        if expr.name in ("date_before", "date_after", "str_contains", "str_starts"):
            return "boolean"
        if expr.name in ("str_lower", "str_concat"):
            return "String"
        if expr.name in ("sqrt", "pow", "exp", "log", "floor", "ceil", "to_double", "lookup"):
            return "double"
        if expr.args:
            return _guess_kind(expr.args[0])
        return "double"
    if isinstance(expr, TupleExpr):
        return "tuple"
    return "other"


def reduce_lambda_pool(kind: str, scan_operators: set[str], scan_methods: set[str]) -> list[ReduceLambda]:
    """Candidate λr bodies for a value kind, seeded by the fragment's ops."""
    v1, v2 = Var("v1", kind), Var("v2", kind)
    lambdas: list[ReduceLambda] = []
    if kind in _NUMERIC_KINDS:
        if "+" in scan_operators or "-" in scan_operators or not scan_operators:
            lambdas.append(ReduceLambda(BinOp("+", v1, v2)))
        if "Math.min" in scan_methods or "<" in scan_operators or "<=" in scan_operators:
            lambdas.append(ReduceLambda(CallFn("min", (v1, v2))))
        if "Math.max" in scan_methods or ">" in scan_operators or ">=" in scan_operators:
            lambdas.append(ReduceLambda(CallFn("max", (v1, v2))))
        if "*" in scan_operators:
            lambdas.append(ReduceLambda(BinOp("*", v1, v2)))
        if not lambdas:
            lambdas.append(ReduceLambda(BinOp("+", v1, v2)))
    elif kind == "boolean":
        lambdas.append(ReduceLambda(BinOp("||", v1, v2)))
        lambdas.append(ReduceLambda(BinOp("&&", v1, v2)))
    elif kind == "String":
        lambdas.append(ReduceLambda(v2))  # keep-last
    return lambdas


def harvest_paths(analysis: FragmentAnalysis) -> list[SymState]:
    """Symbolically execute the fragment's (innermost) loop body.

    Returns an empty list when the body is outside the symbolic executor's
    fragment (the grammar then falls back to purely compositional pools).

    Join fragments harvest from the innermost accumulation body (wrapped
    in its residual guards, with ``binder.field`` reads rewritten to the
    relation field atoms): the update terms seed post-join value
    candidates and the residual conditions seed post-join guards.
    """
    from ..lang import ast_nodes as ast
    from ..verification.loops import loop_body, symexec_body

    containers = {
        name
        for name, jtype in analysis.output_vars.items()
        if jtype.is_collection() or str(jtype).startswith("Map")
    }
    scalar_accs = {
        name: Var(f"__acc_{name}", "double")
        for name in analysis.output_vars
        if name not in containers
    }
    try:
        if analysis.join is not None:
            from ..lang.analysis.joins import rewrite_side_fields

            body = [
                rewrite_side_fields(s, analysis.join)
                for s in analysis.join.guarded_body
            ]
            return symexec_body(analysis, body, scalar_accs, containers)
        body = loop_body(analysis.fragment.loop)
        inner = None
        if analysis.view.kind == "array2d":
            inner = next((s for s in body if isinstance(s, ast.For)), None)
        if inner is None:
            return symexec_body(analysis, body, scalar_accs, containers)
        # Use the innermost body plus suffix statements.  Accumulators:
        # per-row locals declared in the outer body plus scalar outputs
        # carried from the fragment prelude.
        acc_bindings = {
            s.name: Var(f"__acc_{s.name}", "double")
            for s in body
            if isinstance(s, ast.VarDecl)
        }
        acc_bindings.update(scalar_accs)
        paths = symexec_body(analysis, loop_body(inner), acc_bindings, containers)
        suffix = [s for s in body if not isinstance(s, (ast.For, ast.VarDecl))]
        if suffix:
            paths.extend(symexec_body(analysis, suffix, acc_bindings, containers))
        return paths
    except Exception:
        return []

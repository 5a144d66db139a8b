"""Term algebra: normalization of IR expressions for the inductive prover.

The prover decides identities like ``acc + v == v + acc`` or
``min(MAX_VALUE, v) == v`` by rewriting both sides into a canonical normal
form:

* associative-commutative flattening and sorting for ``+ * && || min max``;
* constant folding and identity/absorbing elements;
* coefficient collection in sums (``x + x`` → ``2*x``);
* comparison canonicalization (``a > b`` → ``b < a``);
* conditional simplification, optionally under a set of *assumptions*
  (literal truth values for atomic boolean terms) supplied by the prover's
  case-enumeration.

The normal form is sound for Java's value semantics with the documented
exception that integer overflow is not modelled (Python ints are
arbitrary precision) — the same assumption Dafny makes by default.
"""

from __future__ import annotations

from typing import Optional

from ..ir.nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    IRExpr,
    Proj,
    TupleExpr,
    UnOp,
    Var,
)

INT_MAX = 2**31 - 1
INT_MIN = -(2**31)
DOUBLE_MAX = 1.7976931348623157e308

#: Constants acting as identity elements for min/max over Java domains.
_MIN_IDENTITIES = {INT_MAX, DOUBLE_MAX, float("inf")}
_MAX_IDENTITIES = {INT_MIN, -DOUBLE_MAX, float("-inf")}

Assumptions = dict[str, bool]  # normalized-atom key -> truth value


def term_key(expr: IRExpr) -> str:
    """A stable total-order key for terms (used for AC sorting)."""
    if isinstance(expr, Const):
        return f"c:{expr.kind}:{expr.value!r}"
    if isinstance(expr, Var):
        return f"v:{expr.name}"
    if isinstance(expr, BinOp):
        return f"b:{expr.op}({term_key(expr.left)},{term_key(expr.right)})"
    if isinstance(expr, UnOp):
        return f"u:{expr.op}({term_key(expr.operand)})"
    if isinstance(expr, Cond):
        return (
            f"?({term_key(expr.cond)},{term_key(expr.then)},{term_key(expr.other)})"
        )
    if isinstance(expr, TupleExpr):
        inner = ",".join(term_key(i) for i in expr.items)
        return f"t:({inner})"
    if isinstance(expr, Proj):
        return f"p:{expr.index}({term_key(expr.base)})"
    if isinstance(expr, CallFn):
        inner = ",".join(term_key(a) for a in expr.args)
        return f"f:{expr.name}({inner})"
    return f"x:{expr!r}"


def _is_const(expr: IRExpr) -> bool:
    return isinstance(expr, Const)


def _const_of(value, like: Optional[Const] = None) -> Const:
    if isinstance(value, bool):
        return Const(value, "boolean")
    if isinstance(value, float):
        return Const(value, "double")
    if isinstance(value, int):
        return Const(value, "int")
    if isinstance(value, str):
        return Const(value, "String")
    return Const(value, like.kind if like else "int")


class Normalizer:
    """Rewrites IR expressions into canonical form, under assumptions."""

    def __init__(self, assumptions: Optional[Assumptions] = None):
        self.assumptions = assumptions or {}

    # ------------------------------------------------------------------

    def normalize(self, expr: IRExpr) -> IRExpr:
        result = self._normalize(expr)
        return result

    def equivalent(self, left: IRExpr, right: IRExpr) -> bool:
        """True if both terms share a normal form."""
        return term_key(self.normalize(left)) == term_key(self.normalize(right))

    # ------------------------------------------------------------------

    def _normalize(self, expr: IRExpr) -> IRExpr:
        if isinstance(expr, (Const, Var)):
            return self._apply_assumption(expr)
        if isinstance(expr, BinOp):
            return self._norm_binop(expr)
        if isinstance(expr, UnOp):
            return self._norm_unop(expr)
        if isinstance(expr, Cond):
            return self._norm_cond(expr)
        if isinstance(expr, TupleExpr):
            items = tuple(self._normalize(i) for i in expr.items)
            # Eta rule: (x[0], x[1], ..., x[n-1]) → x.
            if items and all(
                isinstance(item, Proj) and item.index == i
                for i, item in enumerate(items)
            ):
                bases = {term_key(item.base) for item in items}  # type: ignore[union-attr]
                if len(bases) == 1:
                    return items[0].base  # type: ignore[union-attr]
            return TupleExpr(items)
        if isinstance(expr, Proj):
            base = self._normalize(expr.base)
            if isinstance(base, TupleExpr) and expr.index < len(base.items):
                return base.items[expr.index]
            return Proj(base, expr.index)
        if isinstance(expr, CallFn):
            return self._norm_call(expr)
        return expr

    def _apply_assumption(self, expr: IRExpr) -> IRExpr:
        key = term_key(expr)
        if key in self.assumptions:
            return Const(self.assumptions[key], "boolean")
        return expr

    # ------------------------------------------------------------------
    # Sums and products

    def _norm_binop(self, expr: BinOp) -> IRExpr:
        op = expr.op
        if op in ("+", "-"):
            return self._norm_sum(expr)
        if op == "*":
            return self._norm_product(expr)
        if op in ("&&", "||"):
            return self._norm_logic(expr)
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self._norm_compare(expr)
        left = self._normalize(expr.left)
        right = self._normalize(expr.right)
        if op == "/":
            if _is_const(left) and _is_const(right) and right.value not in (0, 0.0):
                return self._fold_div(left, right)
            if isinstance(right, Const) and right.value == 1:
                return left
            if isinstance(left, Const) and left.value == 0 and not (
                isinstance(right, Const) and right.value in (0, 0.0)
            ):
                return left
        if op == "%":
            if _is_const(left) and _is_const(right) and right.value not in (0, 0.0):
                value = left.value - right.value * int(left.value / right.value)
                return _const_of(value, left)
        return self._apply_assumption(BinOp(op, left, right))

    @staticmethod
    def _fold_div(left: Const, right: Const) -> Const:
        a, b = left.value, right.value
        both_int = (
            isinstance(a, int)
            and isinstance(b, int)
            and not isinstance(a, bool)
            and not isinstance(b, bool)
        )
        if both_int:
            quotient = abs(a) // abs(b)
            value = quotient if (a >= 0) == (b >= 0) else -quotient
            return Const(value, "int")
        return Const(a / b, "double")

    def _sum_items(self, expr: IRExpr, sign: int, items: list) -> None:
        """Flatten a sum into (coeff, term) items."""
        if isinstance(expr, BinOp) and expr.op == "+":
            self._sum_items(expr.left, sign, items)
            self._sum_items(expr.right, sign, items)
        elif isinstance(expr, BinOp) and expr.op == "-":
            self._sum_items(expr.left, sign, items)
            self._sum_items(expr.right, -sign, items)
        elif isinstance(expr, UnOp) and expr.op == "-":
            self._sum_items(expr.operand, -sign, items)
        else:
            term = self._normalize(expr)
            if isinstance(term, Const) and not isinstance(term.value, (str,)):
                items.append((sign * term.value, None))
            elif isinstance(term, BinOp) and term.op in ("+", "-"):
                # normalized subterm re-expanded
                self._sum_items(term, sign, items)
            elif isinstance(term, UnOp) and term.op == "-":
                self._sum_items(term.operand, -sign, items)
            else:
                coeff, factor = self._split_coefficient(term)
                if isinstance(factor, BinOp) and factor.op in ("+", "-"):
                    # c * (x + y) distributes into the sum, as a second
                    # pass over the flattened result would do.
                    self._sum_items(factor, sign * coeff, items)
                else:
                    items.append((sign * coeff, factor))

    @staticmethod
    def _split_coefficient(term: IRExpr) -> tuple:
        """Split ``3 * x`` into (3, x); returns (1, term) otherwise."""
        if isinstance(term, BinOp) and term.op == "*":
            if isinstance(term.left, Const) and not isinstance(term.left.value, str):
                return term.left.value, term.right
            if isinstance(term.right, Const) and not isinstance(term.right.value, str):
                return term.right.value, term.left
        return 1, term

    def _norm_sum(self, expr: IRExpr) -> IRExpr:
        # String concatenation is not commutative: keep structural.
        if self._is_string_concat(expr):
            left = self._normalize(expr.left)  # type: ignore[attr-defined]
            right = self._normalize(expr.right)  # type: ignore[attr-defined]
            if isinstance(left, Const) and isinstance(right, Const):
                return Const(str(left.value) + str(right.value), "String")
            return BinOp("+", left, right)
        items: list = []
        self._sum_items(expr, 1, items)
        constant = 0
        collected: dict[str, list] = {}
        for coeff, term in items:
            if term is None:
                constant += coeff
            else:
                collected.setdefault(term_key(term), [0, term])[0] += coeff
        parts: list[IRExpr] = []
        for key in sorted(collected):
            coeff, term = collected[key]
            if coeff == 0:
                continue
            if coeff == 1:
                parts.append(term)
            else:
                parts.append(BinOp("*", _const_of(coeff), term))
        if constant != 0 or not parts:
            parts.append(_const_of(constant))
        result = parts[0]
        for part in parts[1:]:
            result = BinOp("+", result, part)
        return result

    def _is_string_concat(self, expr: IRExpr) -> bool:
        if not (isinstance(expr, BinOp) and expr.op == "+"):
            return False
        for side in (expr.left, expr.right):
            if isinstance(side, Const) and side.kind == "String":
                return True
            if isinstance(side, Var) and side.kind == "String":
                return True
        return False

    def _product_items(self, expr: IRExpr, items: list) -> None:
        if isinstance(expr, BinOp) and expr.op == "*":
            self._product_items(expr.left, items)
            self._product_items(expr.right, items)
        else:
            items.append(self._normalize(expr))

    def _norm_product(self, expr: IRExpr) -> IRExpr:
        items: list = []
        self._product_items(expr, items)
        # Re-flatten any normalized children that are products.
        flat: list[IRExpr] = []
        for item in items:
            if isinstance(item, BinOp) and item.op == "*":
                inner: list = []
                self._product_items(item, inner)
                flat.extend(inner)
            else:
                flat.append(item)
        coeff = 1
        factors: list[IRExpr] = []
        for item in flat:
            if isinstance(item, Const) and not isinstance(item.value, str):
                coeff = coeff * item.value
            else:
                factors.append(item)
        if coeff == 0:
            return _const_of(0 * coeff)
        factors.sort(key=term_key)
        if not factors:
            return _const_of(coeff)
        result = factors[0]
        for factor in factors[1:]:
            result = BinOp("*", result, factor)
        if coeff != 1:
            result = BinOp("*", _const_of(coeff), result)
        return result

    # ------------------------------------------------------------------
    # Booleans

    def _logic_items(self, expr: IRExpr, op: str, items: list) -> None:
        if isinstance(expr, BinOp) and expr.op == op:
            self._logic_items(expr.left, op, items)
            self._logic_items(expr.right, op, items)
        else:
            items.append(self._normalize(expr))

    def _norm_logic(self, expr: BinOp) -> IRExpr:
        op = expr.op
        items: list = []
        self._logic_items(expr, op, items)
        flat: list[IRExpr] = []
        for item in items:
            if isinstance(item, BinOp) and item.op == op:
                self._logic_items(item, op, flat)
            else:
                flat.append(item)
        identity = op == "&&"  # and: identity True; or: identity False
        unique: dict[str, IRExpr] = {}
        for item in flat:
            if isinstance(item, Const):
                if bool(item.value) == identity:
                    continue  # identity element
                return Const(not identity, "boolean")  # absorbing element
            unique[term_key(item)] = item
        # Complement detection: x && !x == false; x || !x == true.
        for key, item in unique.items():
            negated = term_key(self._negate(item))
            if negated in unique:
                return Const(not identity, "boolean")
        if not unique:
            return Const(identity, "boolean")
        ordered = [unique[k] for k in sorted(unique)]
        result = ordered[0]
        for item in ordered[1:]:
            result = BinOp(op, result, item)
        return self._apply_assumption(result)

    def _negate(self, expr: IRExpr) -> IRExpr:
        if isinstance(expr, UnOp) and expr.op == "!":
            return expr.operand
        if isinstance(expr, BinOp) and expr.op == "<":
            return BinOp("<=", expr.right, expr.left)
        if isinstance(expr, BinOp) and expr.op == "<=":
            return BinOp("<", expr.right, expr.left)
        if isinstance(expr, BinOp) and expr.op == "==":
            return BinOp("!=", expr.left, expr.right)
        if isinstance(expr, BinOp) and expr.op == "!=":
            return BinOp("==", expr.left, expr.right)
        return UnOp("!", expr)

    def _norm_compare(self, expr: BinOp) -> IRExpr:
        op = expr.op
        left = self._normalize(expr.left)
        right = self._normalize(expr.right)
        if op == ">":
            op, left, right = "<", right, left
        elif op == ">=":
            op, left, right = "<=", right, left
        if op in ("==", "!=") and term_key(right) < term_key(left):
            left, right = right, left
        if isinstance(left, Const) and isinstance(right, Const):
            try:
                value = {
                    "<": left.value < right.value,
                    "<=": left.value <= right.value,
                    "==": left.value == right.value,
                    "!=": left.value != right.value,
                }[op]
                return Const(value, "boolean")
            except TypeError:
                pass
        if term_key(left) == term_key(right):
            if op in ("<=", "=="):
                return Const(True, "boolean")
            if op in ("<", "!="):
                return Const(False, "boolean")
        return self._apply_assumption(BinOp(op, left, right))

    def _norm_unop(self, expr: UnOp) -> IRExpr:
        operand = self._normalize(expr.operand)
        if expr.op == "!":
            if isinstance(operand, Const):
                return Const(not operand.value, "boolean")
            negated = self._negate(operand)
            if isinstance(negated, UnOp):
                return self._apply_assumption(negated)
            return self._normalize(negated)
        if expr.op == "-":
            if isinstance(operand, Const) and not isinstance(operand.value, str):
                return _const_of(-operand.value, operand)
            return self._norm_sum(UnOp("-", operand))
        return UnOp(expr.op, operand)

    # ------------------------------------------------------------------
    # Conditionals and calls

    def _norm_cond(self, expr: Cond) -> IRExpr:
        cond = self._normalize(expr.cond)
        if isinstance(cond, Const):
            branch = expr.then if cond.value else expr.other
            return self._normalize(branch)
        then = self._normalize(expr.then)
        other = self._normalize(expr.other)
        if term_key(then) == term_key(other):
            return then
        return Cond(cond, then, other)

    _AC_CALLS = frozenset({"min", "max"})

    def _call_items(self, expr: IRExpr, name: str, items: list) -> None:
        if isinstance(expr, CallFn) and expr.name == name:
            for arg in expr.args:
                self._call_items(arg, name, items)
        else:
            items.append(self._normalize(expr))

    def _norm_call(self, expr: CallFn) -> IRExpr:
        if expr.name in self._AC_CALLS:
            return self._norm_minmax(expr)
        args = tuple(self._normalize(a) for a in expr.args)
        if all(isinstance(a, Const) for a in args):
            folded = self._try_fold_call(expr.name, args)
            if folded is not None:
                return folded
        if expr.name == "abs":
            arg = args[0]
            if isinstance(arg, CallFn) and arg.name == "abs":
                return arg
        if expr.name == "sq":
            return self._norm_product(BinOp("*", args[0], args[0]))
        result = CallFn(expr.name, args)
        if expr.name in ("date_before", "date_after", "str_contains", "str_starts"):
            return self._apply_assumption(result)
        return result

    def _try_fold_call(self, name: str, args: tuple) -> Optional[IRExpr]:
        from ..ir.eval import apply_function

        try:
            value = apply_function(name, [a.value for a in args])
        except Exception:
            return None
        if isinstance(value, (int, float, bool, str)):
            return _const_of(value, args[0] if args else None)
        return None

    def _norm_minmax(self, expr: CallFn) -> IRExpr:
        name = expr.name
        items: list = []
        self._call_items(expr, name, items)
        flat: list[IRExpr] = []
        for item in items:
            if isinstance(item, CallFn) and item.name == name:
                self._call_items(item, name, flat)
            else:
                flat.append(item)
        identities = _MIN_IDENTITIES if name == "min" else _MAX_IDENTITIES
        consts = [i for i in flat if isinstance(i, Const) and not isinstance(i.value, str)]
        terms = {term_key(i): i for i in flat if not (isinstance(i, Const) and not isinstance(i.value, str))}
        const_val = None
        for c in consts:
            if c.value in identities:
                continue
            if const_val is None:
                const_val = c.value
            else:
                const_val = min(const_val, c.value) if name == "min" else max(const_val, c.value)
        ordered = [terms[k] for k in sorted(terms)]
        # Pairwise resolution using ordering assumptions.
        ordered = self._resolve_minmax_pairs(name, ordered)
        parts: list[IRExpr] = list(ordered)
        if const_val is not None:
            parts.append(_const_of(const_val))
        if not parts:
            # Everything was an identity element.
            value = INT_MAX if name == "min" else INT_MIN
            return _const_of(value)
        if len(parts) == 1:
            return parts[0]
        result = parts[0]
        for part in parts[1:]:
            result = CallFn(name, (result, part))
        return result

    def _resolve_minmax_pairs(self, name: str, terms: list) -> list:
        """Use ordering assumptions to drop dominated arguments."""
        if not self.assumptions or len(terms) < 2:
            return terms
        survivors = list(terms)
        changed = True
        while changed:
            changed = False
            for i, a in enumerate(survivors):
                for j, b in enumerate(survivors):
                    if i >= j:
                        continue
                    keep = self._minmax_winner(name, a, b)
                    if keep is not None:
                        survivors = [
                            t
                            for k, t in enumerate(survivors)
                            if k not in (i, j)
                        ] + [keep]
                        survivors.sort(key=term_key)
                        changed = True
                        break
                if changed:
                    break
        return survivors

    def _minmax_winner(self, name: str, a: IRExpr, b: IRExpr):
        """If assumptions order a and b, return min/max winner, else None."""
        lt_ab = self.assumptions.get(term_key(BinOp("<", a, b)))
        lt_ba = self.assumptions.get(term_key(BinOp("<", b, a)))
        le_ab = self.assumptions.get(term_key(BinOp("<=", a, b)))
        le_ba = self.assumptions.get(term_key(BinOp("<=", b, a)))
        a_smaller = lt_ab is True or le_ab is True or lt_ba is False or le_ba is False
        b_smaller = lt_ba is True or le_ba is True or lt_ab is False or le_ab is False
        if a_smaller:
            return a if name == "min" else b
        if b_smaller:
            return b if name == "min" else a
        return None


def substitute(expr: IRExpr, mapping: dict[str, IRExpr]) -> IRExpr:
    """Replace Var nodes by terms (capture-free: IR vars have flat scope)."""
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, Cond):
        return Cond(
            substitute(expr.cond, mapping),
            substitute(expr.then, mapping),
            substitute(expr.other, mapping),
        )
    if isinstance(expr, TupleExpr):
        return TupleExpr(tuple(substitute(i, mapping) for i in expr.items))
    if isinstance(expr, Proj):
        return Proj(substitute(expr.base, mapping), expr.index)
    if isinstance(expr, CallFn):
        return CallFn(expr.name, tuple(substitute(a, mapping) for a in expr.args))
    return expr


def normalize(expr: IRExpr, assumptions: Optional[Assumptions] = None) -> IRExpr:
    """Normalize a term (module-level convenience)."""
    return Normalizer(assumptions).normalize(expr)


def terms_equal(
    left: IRExpr, right: IRExpr, assumptions: Optional[Assumptions] = None
) -> bool:
    """Check algebraic equality of two terms under optional assumptions."""
    return Normalizer(assumptions).equivalent(left, right)


def collect_atoms(expr: IRExpr) -> list[IRExpr]:
    """Atomic boolean subterms (comparisons, boolean vars/calls) of a term.

    These are the case-split points for the prover: assigning each atom a
    truth value removes all conditionals from the term.
    """
    atoms: dict[str, IRExpr] = {}

    def visit(node: IRExpr, boolean_context: bool) -> None:
        if isinstance(node, BinOp):
            if node.op in ("<", "<=", ">", ">=", "==", "!="):
                normalized = normalize(node)
                if isinstance(normalized, BinOp):
                    atoms[term_key(normalized)] = normalized
                visit(node.left, False)
                visit(node.right, False)
                return
            if node.op in ("&&", "||"):
                visit(node.left, True)
                visit(node.right, True)
                return
            visit(node.left, False)
            visit(node.right, False)
        elif isinstance(node, UnOp):
            visit(node.operand, node.op == "!")
        elif isinstance(node, Cond):
            visit(node.cond, True)
            visit(node.then, boolean_context)
            visit(node.other, boolean_context)
        elif isinstance(node, TupleExpr):
            for item in node.items:
                visit(item, False)
        elif isinstance(node, Proj):
            visit(node.base, False)
        elif isinstance(node, CallFn):
            if node.name in ("str_contains", "str_starts", "date_before", "date_after"):
                normalized = normalize(node)
                atoms[term_key(normalized)] = normalized
            for arg in node.args:
                visit(arg, False)
        elif isinstance(node, Var):
            if boolean_context or node.kind == "boolean":
                atoms[term_key(node)] = node

    visit(expr, False)
    return [atoms[k] for k in sorted(atoms)]


def assignment_feasible(atoms: list[IRExpr], assignment: dict[str, bool]) -> bool:
    """Reject obviously-contradictory truth assignments to ordering atoms.

    Checks pairwise consistency of ``<``, ``<=``, ``==`` atoms over the
    same operand pair (e.g. ``a < b`` and ``b < a`` cannot both hold).
    """
    facts: dict[tuple[str, str], dict[str, bool]] = {}
    for atom in atoms:
        if not isinstance(atom, BinOp):
            continue
        if atom.op not in ("<", "<=", "==", "!="):
            continue
        value = assignment.get(term_key(atom))
        if value is None:
            continue
        a, b = term_key(atom.left), term_key(atom.right)
        pair = (a, b) if a <= b else (b, a)
        flipped = a > b
        rel = atom.op
        entry = facts.setdefault(pair, {})
        if rel == "<":
            entry["lt_ba" if flipped else "lt_ab"] = value
        elif rel == "<=":
            entry["le_ba" if flipped else "le_ab"] = value
        elif rel == "==":
            entry["eq"] = value
        elif rel == "!=":
            entry["eq"] = not value

    for entry in facts.values():
        lt_ab = entry.get("lt_ab")
        lt_ba = entry.get("lt_ba")
        le_ab = entry.get("le_ab")
        le_ba = entry.get("le_ba")
        eq = entry.get("eq")
        if lt_ab and lt_ba:
            return False
        if eq and (lt_ab or lt_ba):
            return False
        if eq and (le_ab is False or le_ba is False):
            return False
        if lt_ab and le_ba:
            return False
        if lt_ba and le_ab:
            return False
        if le_ab is False and le_ba is False:
            return False
        if le_ab is False and (lt_ab or eq):
            return False
        if le_ba is False and (lt_ba or eq):
            return False
        if lt_ab and le_ab is False:
            return False
        if lt_ba and le_ba is False:
            return False
        # !(a<=b) implies b<a; combined with !(b<a) contradiction:
        if le_ab is False and lt_ba is False:
            return False
        if le_ba is False and lt_ab is False:
            return False
    return True

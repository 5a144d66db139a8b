"""Tests for the term algebra: normalization, assumptions, properties."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir.builder import (
    add,
    and_,
    cond,
    const,
    div,
    lt,
    max_,
    min_,
    mul,
    or_,
    proj,
    sub,
    tup,
    var,
)
from repro.ir.eval import eval_expr
from repro.ir.nodes import BinOp, CallFn, Cond, Const, Emit, UnOp, Var
from repro.verification.algebra import (
    INT_MAX,
    INT_MIN,
    Normalizer,
    assignment_feasible,
    collect_atoms,
    normalize,
    substitute,
    term_key,
    terms_equal,
)


class TestSumNormalization:
    def test_commutativity(self):
        assert terms_equal(add(var("a"), var("b")), add(var("b"), var("a")))

    def test_associativity(self):
        left = add(add(var("a"), var("b")), var("c"))
        right = add(var("a"), add(var("b"), var("c")))
        assert terms_equal(left, right)

    def test_coefficient_collection(self):
        assert terms_equal(add(var("x"), var("x")), mul(const(2), var("x")))

    def test_subtraction_cancels(self):
        assert terms_equal(sub(add(var("x"), var("y")), var("y")), var("x"))

    def test_additive_identity(self):
        assert terms_equal(add(var("x"), const(0)), var("x"))

    def test_constant_folding(self):
        assert normalize(add(const(2), const(3))) == Const(5, "int")

    def test_string_concat_not_commuted(self):
        a = add(Const("a", "String"), Var("s", "String"))
        b = add(Var("s", "String"), Const("a", "String"))
        assert not terms_equal(a, b)


class TestProductNormalization:
    def test_commutativity(self):
        assert terms_equal(mul(var("a"), var("b")), mul(var("b"), var("a")))

    def test_multiplicative_zero(self):
        assert normalize(mul(var("x"), const(0))) == Const(0, "int")

    def test_multiplicative_identity(self):
        assert terms_equal(mul(var("x"), const(1)), var("x"))

    def test_distribution_not_assumed(self):
        # (a+b)*c and a*c+b*c normalize differently (no distribution) —
        # but both are still stable under re-normalization.
        left = mul(add(var("a"), var("b")), var("c"))
        assert term_key(normalize(left)) == term_key(normalize(normalize(left)))

    def test_division_by_one(self):
        assert terms_equal(div(var("x"), const(1)), var("x"))

    def test_int_division_not_simplified(self):
        # (a/2)*2 != a under Java int division: must not normalize equal.
        assert not terms_equal(mul(div(var("a"), const(2)), const(2)), var("a"))


class TestBooleanNormalization:
    def test_and_commutative(self):
        assert terms_equal(and_(var("p", "boolean"), var("q", "boolean")),
                           and_(var("q", "boolean"), var("p", "boolean")))

    def test_idempotence(self):
        p = var("p", "boolean")
        assert terms_equal(and_(p, p), p)

    def test_identity_elements(self):
        p = var("p", "boolean")
        assert terms_equal(and_(p, const(True)), p)
        assert terms_equal(or_(p, const(False)), p)

    def test_absorbing_elements(self):
        p = var("p", "boolean")
        assert normalize(and_(p, const(False))) == Const(False, "boolean")
        assert normalize(or_(p, const(True))) == Const(True, "boolean")

    def test_complement_detection(self):
        atom = lt(var("a"), var("b"))
        negated = UnOp("!", atom)
        assert normalize(and_(atom, negated)) == Const(False, "boolean")
        assert normalize(or_(atom, negated)) == Const(True, "boolean")

    def test_comparison_canonicalization(self):
        gt = BinOp(">", var("a"), var("b"))
        lt_flip = BinOp("<", var("b"), var("a"))
        assert terms_equal(gt, lt_flip)

    def test_reflexive_comparison_folds(self):
        assert normalize(BinOp("<=", var("x"), var("x"))) == Const(True, "boolean")
        assert normalize(BinOp("<", var("x"), var("x"))) == Const(False, "boolean")

    def test_double_negation(self):
        p = lt(var("a"), var("b"))
        assert terms_equal(UnOp("!", UnOp("!", p)), p)


class TestMinMax:
    def test_min_flatten_and_commute(self):
        assert terms_equal(min_(min_(var("a"), var("b")), var("c")),
                           min_(var("a"), min_(var("c"), var("b"))))

    def test_min_identity_element(self):
        assert terms_equal(min_(Const(INT_MAX, "int"), var("x")), var("x"))

    def test_max_identity_element(self):
        assert terms_equal(max_(Const(INT_MIN, "int"), var("x")), var("x"))

    def test_min_resolution_under_assumption(self):
        atom = normalize(lt(var("a"), var("b")))
        normalizer = Normalizer({term_key(atom): True})
        assert term_key(normalizer.normalize(min_(var("a"), var("b")))) == term_key(var("a"))
        assert term_key(normalizer.normalize(max_(var("a"), var("b")))) == term_key(var("b"))

    def test_min_idempotent(self):
        assert terms_equal(min_(var("x"), var("x")), var("x"))


class TestNormalizerEdges:
    """Terms the normalizer cannot fold stay as they are: no exception
    escapes to the prover, and substitution reaches every node kind."""

    def test_incomparable_constants_stay_a_comparison(self):
        term = normalize(lt(Const("a", "String"), const(1)))
        assert isinstance(term, BinOp) and term.op == "<"

    def test_calls_that_cannot_be_folded_stay_calls(self):
        # An unmodelled name, and a modelled one on arguments it rejects.
        assert str(normalize(CallFn("nope", (const(1),)))) == "nope(1)"
        dates = normalize(CallFn("date_before", (const(1), const(2))))
        assert isinstance(dates, CallFn) and dates.name == "date_before"

    def test_folded_calls_keep_their_constant_kind(self):
        lower = normalize(CallFn("str_lower", (Const("AB", "String"),)))
        assert lower == Const("ab", "String")
        either = normalize(max_(Const(True, "boolean"), Const(False, "boolean")))
        assert either == Const(True, "boolean")

    def test_min_of_identities_only_is_the_identity(self):
        both = min_(Const(INT_MAX, "int"), Const(INT_MAX, "int"))
        assert normalize(both) == Const(INT_MAX, "int")

    def test_unary_minus_of_a_variable_is_a_coefficient(self):
        assert terms_equal(UnOp("-", var("x")), mul(const(-1), var("x")))

    def test_unknown_unary_operator_is_kept(self):
        assert normalize(UnOp("~", var("x"))) == UnOp("~", var("x"))

    def test_substitute_reaches_unary_and_conditional_terms(self):
        term = Cond(var("c"), UnOp("-", var("x")), Emit(var("x"), var("x")))
        result = substitute(term, {"x": const(2), "c": var("d")})
        # An unknown node kind (the Emit) is returned unchanged.
        assert result == Cond(var("d"), UnOp("-", const(2)), Emit(var("x"), var("x")))
        assert term_key(Emit(var("k"), var("v"))).startswith("x:Emit(")


class TestConditionals:
    def test_cond_constant_selection(self):
        expr = cond(const(True), var("a"), var("b"))
        assert terms_equal(expr, var("a"))

    def test_cond_same_branches_collapse(self):
        expr = cond(lt(var("a"), var("b")), var("x"), var("x"))
        assert terms_equal(expr, var("x"))

    def test_cond_resolved_by_assumption(self):
        atom = normalize(lt(var("a"), var("b")))
        normalizer = Normalizer({term_key(atom): False})
        expr = cond(lt(var("a"), var("b")), var("x"), var("y"))
        assert term_key(normalizer.normalize(expr)) == term_key(var("y"))

    def test_tuple_eta_reduction(self):
        t = var("t")
        expr = tup(proj(t, 0), proj(t, 1))
        assert terms_equal(expr, t)


class TestAtomsAndAssignments:
    def test_collect_atoms_from_guard(self):
        guard = and_(lt(var("a"), var("b")), lt(const(0), var("c")))
        atoms = collect_atoms(guard)
        assert len(atoms) == 2

    def test_collect_boolean_var_atom(self):
        expr = cond(var("flag", "boolean"), var("x"), var("y"))
        atoms = collect_atoms(expr)
        assert any(isinstance(a, Var) for a in atoms)

    def test_infeasible_assignment_rejected(self):
        a_lt_b = normalize(lt(var("a"), var("b")))
        b_lt_a = normalize(lt(var("b"), var("a")))
        atoms = [a_lt_b, b_lt_a]
        both_true = {term_key(a_lt_b): True, term_key(b_lt_a): True}
        assert not assignment_feasible(atoms, both_true)

    def test_feasible_assignment_accepted(self):
        a_lt_b = normalize(lt(var("a"), var("b")))
        b_lt_a = normalize(lt(var("b"), var("a")))
        atoms = [a_lt_b, b_lt_a]
        one_true = {term_key(a_lt_b): True, term_key(b_lt_a): False}
        assert assignment_feasible(atoms, one_true)

    def test_substitution(self):
        expr = add(var("x"), mul(var("y"), var("x")))
        result = substitute(expr, {"x": const(2)})
        assert eval_expr(result, {"y": 3}) == 8


# ----------------------------------------------------------------------
# Property-based: normalization preserves semantics


_names = st.sampled_from(["a", "b", "c"])


@st.composite
def arith_terms(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return var(draw(_names))
        return const(draw(st.integers(min_value=-9, max_value=9)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arith_terms(depth=depth + 1))
    right = draw(arith_terms(depth=depth + 1))
    return BinOp(op, left, right)


@given(arith_terms(), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_normalize_preserves_arithmetic_semantics(expr, a, b, c):
    env = {"a": a, "b": b, "c": c}
    assert eval_expr(expr, env) == eval_expr(normalize(expr), env)


@given(arith_terms())
# A scaled sum inside a sum, a - (-1 * (1 + a)), must distribute on the
# first pass.
@example(sub(var("a"), mul(const(-1), add(const(1), var("a")))))
@settings(max_examples=100, deadline=None)
def test_normalization_is_idempotent(expr):
    once = normalize(expr)
    twice = normalize(once)
    assert term_key(once) == term_key(twice)


@given(arith_terms(), arith_terms())
@settings(max_examples=100, deadline=None)
def test_terms_equal_is_sound(left, right):
    # If the normalizer claims equality, the terms must agree semantically.
    if terms_equal(left, right):
        for env in ({"a": 3, "b": -2, "c": 7}, {"a": 0, "b": 11, "c": -5}):
            assert eval_expr(left, env) == eval_expr(right, env)

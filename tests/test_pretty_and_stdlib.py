"""Tests for pretty-printers, stdlib models, values, and error types."""

import pytest

import repro.errors as errors
from repro.lang import ast, format_expr, parse_function
from repro.lang.pretty import count_loc
from repro.lang.stdlib import (
    call_instance_method,
    call_static_method,
    has_static_field,
    static_field,
)
from repro.lang.values import Instance, deep_copy_value, make_date, parse_date, values_equal
from repro.ir import builder, format_pipeline, format_summary
from repro.errors import InterpreterError


class TestLangPretty:
    def test_expression_formatting(self):
        func = parse_function("int f(int a, int b) { return a * (b + 1); }")
        text = format_expr(func.body.stmts[0].value)
        assert text == "(a * (b + 1))"

    def test_string_literal_escaping(self):
        func = parse_function('String f() { return "a\\"b"; }')
        text = format_expr(func.body.stmts[0].value)
        assert text == '"a\\"b"'

    def test_ternary_and_method_calls(self):
        func = parse_function(
            'int f(String s) { return s.isEmpty() ? 0 : s.length(); }'
        )
        text = format_expr(func.body.stmts[0].value)
        assert "s.isEmpty()" in text and "s.length()" in text

    @pytest.mark.parametrize(
        "expr, text",
        [
            ("1.5", "1.5"),
            ("true", "true"),
            ("'c'", "'c'"),
            ("null", "null"),
            ("-a", "-a"),
            ("p.w", "p.w"),
            ("g(a, 1)", "g(a, 1)"),
            ("new int[a][]", "new int[a][]"),
            ("new P(a)", "new P(a)"),
            ("++a", "++a"),
            ("a--", "a--"),
            ("(double) a", "((double) a)"),
            ("a[1]", "a[1]"),
            ("a = 1", "a = 1"),
        ],
    )
    def test_every_expression_kind(self, expr, text):
        func = parse_function(f"int f(int a, P p) {{ return {expr}; }}")
        assert format_expr(func.body.stmts[0].value) == text

    def test_unknown_expression_kind(self):
        assert format_expr(ast.Expr()) == "<Expr>"

    def test_count_loc_ignores_blocks(self):
        func = parse_function("int f() { { { return 1; } } }")
        assert count_loc(func.body) == 1


class TestIRPretty:
    def test_pipeline_formatting_nests(self):
        summary = builder.row_wise_mean_summary()
        assert format_pipeline(summary.pipeline) == "map(reduce(map(mat, λm0), λr1), λm2)"

    def test_summary_formatting_scalar_binding(self):
        s = builder.summary(
            builder.pipeline(
                "d",
                builder.map_stage(("v",), builder.emit(builder.const("x"), builder.var("v"))),
                builder.reduce_stage(builder.add(builder.var("v1"), builder.var("v2"))),
            ),
            builder.scalar_output("x", default=0),
        )
        text = format_summary(s)
        assert "x = (reduce(map(d, λm0), λr1))['x']" in text


class TestStdlibModels:
    def test_math_static_methods(self):
        assert call_static_method("Math", "abs", [-3]) == 3
        assert call_static_method("Math", "round", [2.5]) == 3
        assert call_static_method("Math", "signum", [-7.0]) == -1.0

    def test_integer_parsing(self):
        assert call_static_method("Integer", "parseInt", ["42"]) == 42
        assert call_static_method("Double", "parseDouble", ["2.5"]) == 2.5

    def test_unknown_static_method_raises(self):
        with pytest.raises(InterpreterError):
            call_static_method("Math", "nope", [1])

    def test_static_fields(self):
        assert static_field("Integer", "MAX_VALUE") == 2**31 - 1
        assert has_static_field("Double", "MAX_VALUE")
        assert not has_static_field("Math", "TAU")

    def test_string_instance_methods(self):
        assert call_instance_method("Hello", "toLowerCase", []) == "hello"
        assert call_instance_method("a,b,,", "split", [","]) == ["a", "b"]
        assert call_instance_method("  x ", "trim", []) == "x"
        assert call_instance_method("abc", "substring", [1]) == "bc"
        assert call_instance_method("abc", "indexOf", ["c"]) == 2

    def test_java_string_hash_matches_reference(self):
        # Java's "Hello".hashCode() is a well-known constant.
        assert call_instance_method("Hello", "hashCode", []) == 69609650

    def test_list_methods(self):
        xs = [1, 2, 3]
        assert call_instance_method(xs, "remove", [0]) == 1
        assert xs == [2, 3]
        call_instance_method(xs, "addAll", [[9, 9]])
        assert xs == [2, 3, 9, 9]

    def test_set_add_returns_freshness(self):
        s = set()
        assert call_instance_method(s, "add", [1]) is True
        assert call_instance_method(s, "add", [1]) is False

    def test_map_methods(self):
        m = {"a": 1}
        assert call_instance_method(m, "containsKey", ["a"])
        assert call_instance_method(m, "getOrDefault", ["z", 0]) == 0
        assert call_instance_method(m, "keySet", []) == {"a"}

    def test_date_methods(self):
        early = parse_date("1999-01-01")
        late = parse_date("2000-06-15")
        assert call_instance_method(early, "before", [late])
        assert not call_instance_method(early, "after", [late])
        assert call_instance_method(early, "compareTo", [late]) == -1

    def test_unmodelled_method_raises(self):
        with pytest.raises(InterpreterError):
            call_instance_method([1], "sort", [])


class TestValues:
    def test_parse_date_epoch_and_leap_years(self):
        assert parse_date("1970-01-01").get("epoch") == 0
        assert parse_date("1970-02-01").get("epoch") == 31
        # 1972 is a leap year: Mar 1 1972 = 730 + 60 days... check monotone.
        assert parse_date("1972-03-01").get("epoch") == parse_date("1972-02-29").get("epoch") + 1

    def test_instance_equality_and_hash(self):
        a = Instance("P", {"x": 1})
        b = Instance("P", {"x": 1})
        assert a == b and hash(a) == hash(b)
        assert a != Instance("P", {"x": 2})
        assert a != Instance("Q", {"x": 1})

    def test_instance_unknown_field_raises(self):
        with pytest.raises(KeyError):
            Instance("P", {"x": 1}).get("y")

    def test_deep_copy_isolates_mutation(self):
        original = {"xs": [1, [2, 3]], "obj": Instance("P", {"v": [4]})}
        copy = deep_copy_value(original)
        copy["xs"][1].append(99)
        copy["obj"].get("v").append(99)
        assert original["xs"][1] == [2, 3]
        assert original["obj"].get("v") == [4]

    def test_values_equal_tolerance(self):
        assert values_equal(1.0, 1.0 + 1e-9)
        assert not values_equal(1.0, 1.01)
        assert values_equal([1.0, 2.0], [1.0, 2.0])
        assert not values_equal([1.0], [1.0, 2.0])
        assert values_equal({"a": 1}, {"a": 1})
        assert not values_equal({"a": 1}, {"b": 1})

    def test_values_equal_bool_not_int(self):
        assert not values_equal(True, 1.0000001) or values_equal(True, True)
        assert values_equal(True, True)
        assert not values_equal(True, False)

    def test_values_equal_infinity(self):
        inf = float("inf")
        assert values_equal(inf, inf)
        assert not values_equal(inf, -inf)
        assert not values_equal(inf, 1e308)

    def test_make_date(self):
        assert make_date(5).get("epoch") == 5


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            attr = getattr(errors, name)
            if isinstance(attr, type) and issubclass(attr, Exception) and attr is not errors.ReproError:
                if attr.__module__ == "repro.errors":
                    assert issubclass(attr, errors.ReproError), name

    def test_positioned_errors_carry_location(self):
        err = errors.ParseError("bad", line=3, column=7)
        assert err.line == 3 and err.column == 7
        assert "line 3" in str(err)

"""Unit tests for the mini-Java reference interpreter."""

import pytest

from repro.errors import InterpreterError
from repro.lang import Instance, parse_date, run_function
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program


class TestArithmetic:
    def test_integer_division_truncates_toward_zero(self):
        assert run_function("int f() { return -7 / 2; }", "f", []) == -3
        assert run_function("int f() { return 7 / 2; }", "f", []) == 3

    def test_integer_remainder_sign(self):
        assert run_function("int f() { return -7 % 2; }", "f", []) == -1
        assert run_function("int f() { return 7 % -2; }", "f", []) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            run_function("int f() { return 1 / 0; }", "f", [])

    def test_mixed_arithmetic_widens(self):
        assert run_function("double f() { return 7 / 2.0; }", "f", []) == 3.5

    def test_string_concatenation(self):
        assert run_function('String f() { return "a" + 1; }', "f", []) == "a1"

    def test_bitwise_operators(self):
        assert run_function("int f() { return (5 & 3) | (4 ^ 1); }", "f", []) == (5 & 3) | (4 ^ 1)

    def test_shift_operators(self):
        assert run_function("int f() { return 1 << 4; }", "f", []) == 16

    def test_short_circuit_and(self):
        source = "boolean f(int x) { return x != 0 && 10 / x > 1; }"
        assert run_function(source, "f", [0]) is False  # no division fault


class TestControlFlow:
    def test_for_loop_accumulation(self):
        source = "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }"
        assert run_function(source, "f", [10]) == 55

    def test_while_with_break(self):
        source = """
        int f() {
          int i = 0;
          while (true) { if (i >= 5) break; i++; }
          return i;
        }
        """
        assert run_function(source, "f", []) == 5

    def test_continue_skips(self):
        source = """
        int f(int n) {
          int s = 0;
          for (int i = 0; i < n; i++) { if (i % 2 == 0) continue; s += i; }
          return s;
        }
        """
        assert run_function(source, "f", [10]) == 1 + 3 + 5 + 7 + 9

    def test_do_while_runs_once(self):
        source = "int f() { int i = 0; do i++; while (false); return i; }"
        assert run_function(source, "f", []) == 1

    def test_nested_loops(self):
        source = """
        int f(int n) {
          int c = 0;
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              c++;
          return c;
        }
        """
        assert run_function(source, "f", [4]) == 16

    def test_foreach_over_list(self):
        source = "int f(List<int> xs) { int s = 0; for (int x : xs) s += x; return s; }"
        assert run_function(source, "f", [[1, 2, 3, 4]]) == 10

    def test_infinite_loop_guard(self):
        interp = Interpreter(parse_program("int f() { while (true) { } return 0; }"), max_steps=10_000)
        with pytest.raises(InterpreterError):
            interp.call_function("f", [])


class TestDataStructures:
    def test_array_allocation_and_store(self):
        source = """
        int[] f(int n) {
          int[] a = new int[n];
          for (int i = 0; i < n; i++) a[i] = i * i;
          return a;
        }
        """
        assert run_function(source, "f", [4]) == [0, 1, 4, 9]

    def test_2d_array(self):
        source = """
        int f() {
          int[][] m = new int[2][3];
          m[1][2] = 7;
          return m[1][2] + m[0][0];
        }
        """
        assert run_function(source, "f", []) == 7

    def test_array_bounds_checked(self):
        with pytest.raises(InterpreterError):
            run_function("int f(int[] a) { return a[5]; }", "f", [[1, 2]])

    def test_map_operations(self):
        source = """
        int f() {
          Map<String, Integer> m = new HashMap<String, Integer>();
          m.put("a", 1);
          m.put("a", m.getOrDefault("a", 0) + 10);
          return m.get("a");
        }
        """
        assert run_function(source, "f", []) == 11

    def test_set_operations(self):
        source = """
        int f(List<int> xs) {
          Set<int> s = new HashSet<int>();
          for (int x : xs) s.add(x);
          return s.size();
        }
        """
        assert run_function(source, "f", [[1, 2, 2, 3, 3, 3]]) == 3

    def test_list_add_get(self):
        source = """
        int f() {
          List<int> xs = new ArrayList<int>();
          xs.add(5);
          xs.add(7);
          return xs.get(1);
        }
        """
        assert run_function(source, "f", []) == 7

    def test_user_class_instance(self):
        source = """
        class P { int x; int y; }
        int f() {
          P p = new P(3, 4);
          p.x = p.x + 1;
          return p.x * p.y;
        }
        """
        assert run_function(source, "f", []) == 16

    def test_instance_argument(self):
        source = "class P { int x; } int f(P p) { return p.x; }"
        assert run_function(source, "f", [Instance("P", {"x": 9})]) == 9


class TestLibraryMethods:
    def test_math_methods(self):
        assert run_function("int f() { return Math.abs(-4) + Math.max(1, 2); }", "f", []) == 6
        assert run_function("double f() { return Math.sqrt(9.0); }", "f", []) == 3.0

    def test_math_sqrt_negative_is_nan(self):
        result = run_function("double f() { return Math.sqrt(-1.0); }", "f", [])
        assert result != result  # NaN

    def test_integer_constants(self):
        assert run_function("int f() { return Integer.MAX_VALUE; }", "f", []) == 2**31 - 1

    def test_string_methods(self):
        source = 'boolean f(String s) { return s.toLowerCase().startsWith("ab"); }'
        assert run_function(source, "f", ["ABc"]) is True

    def test_string_split(self):
        source = 'int f(String s) { return s.split(" ").length; }'
        assert run_function(source, "f", ["a b c"]) == 3

    def test_date_comparison(self):
        source = """
        boolean f(Date d) {
          Date cutoff = Util.parseDate("2000-01-01");
          return d.before(cutoff);
        }
        """
        assert run_function(source, "f", [parse_date("1999-12-31")]) is True
        assert run_function(source, "f", [parse_date("2000-01-02")]) is False

    def test_user_function_call(self):
        source = """
        int sq(int x) { return x * x; }
        int f(int a) { return sq(a) + sq(a + 1); }
        """
        program = parse_program(source)
        assert Interpreter(program).call_function("f", [2]) == 4 + 9

    def test_counters_track_operations(self):
        program = parse_program("int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }")
        interp = Interpreter(program)
        interp.call_function("f", [100])
        assert interp.counters.loop_iterations == 100
        assert interp.counters.arith_ops > 100


# The interpreter is the reference oracle: every branch of it runs here,
# including the ones no suite program takes.
ORACLE_VALUES = [
    ("String f() { String s; return s; }", [], None),
    ("char f() { char c = 'x'; return c; }", [], "x"),
    ("String f() { String s = null; return s; }", [], None),
    ("int f(double d) { return (int) d; }", [2.7], 2),
    ("double f(int i) { return (double) i; }", [3], 3.0),
    ("int f(int x) { int y = x; }", [1], None),
    ("int f(int x) { return ~x; }", [5], -6),
    ("int f(int x) { return x >> 1; }", [8], 4),
    ('String f() { return "b" + true + 2.0; }', [], "btrue2.0"),
    (
        "int f() { int s = 0; int i = 0; while (i < 5) { i++; if (i == 2) continue; s += i; } return s; }",
        [],
        13,
    ),
    (
        "int f() { int s = 0; int i = 0; do { i++; if (i == 2) continue; if (i == 4) break; s += i; } while (i < 10); return s; }",
        [],
        4,
    ),
    ("int f() { int s = 0; for (int i = 0; i < 9; i++) { if (i == 3) break; s += i; } return s; }", [], 3),
    ("int f(int[] a) { return a[0]; }", [{0: 5}], 5),
    ("int f(int[] a) { a[0] = 7; return a[0]; }", [{0: 1}], 7),
    ("int f(int x) { System.out.println(x); return x; }", [4], 4),
    ("boolean f(List<String> xs) { return xs.remove(\"a\"); }", [["a", "b"]], True),
    ("boolean f(boolean b) { return !b; }", [True], False),
    (
        "int f(List<Integer> xs) { int s = 0; for (int x : xs) { if (x == 2) continue; if (x == 4) break; s += x; } return s; }",
        [[1, 2, 3, 4, 5]],
        4,
    ),
    ("double f(double x) { return Math.log10(x); }", [100.0], 2.0),
    ("double f(double x) { return Math.log10(x); }", [0.0], float("-inf")),
    (r'int f(String s) { return s.split("\\s+").length; }', ["a  b c"], 3),
    ('int f(String s) { return s.hashCode(); }', ["polygenelubricants"], -2147483648),
]

ORACLE_ERRORS = [
    ("int f(int a) { return a; }", [], "expects 1 args, got 0"),
    ("int f(int[] a) { return a[0]; }", [None], "indexing a null array"),
    ("int f() { return zz.length; }", [], "undefined variable 'zz'"),
    ("int f() { int[] a = new int[-1]; return 0; }", [], "negative array size"),
    ("class P { int x; int y; } int f() { P p = new P(1); return 0; }", [], "constructor expects 2 args"),
    ("int f(int[] a) { a[0] = 1; return 0; }", [None], "store into null array"),
    ("int f(int a) { a.x = 1; return 0; }", [3], "field store on non-object"),
    ("class P { int x; } int f() { P p = new P(); return p.size(); }", [], "no method 'size' modelled for class P"),
    ("int f(int a) { return a.size(); }", [3], "cannot call method 'size' on int"),
    ("int f() { x = 1; return 0; }", [], "assignment to undefined variable 'x'"),
    ("int f(List<Integer> xs) { for (int x : xs) { } return 0; }", [None], "iterating a null collection"),
    ("int f(int[] a) { return a[0]; }", [{1: 2}], "bad index operation"),
    ("int f(int a) { return a.length; }", [3], "'.length' on non-array value"),
    ("int f(int a) { return a.w; }", [3], "field access 'w' on int"),
    ("int f() { return g(1); }", [], "call to undefined function 'g'"),
    ("int f() { Q q = new Q(); return 0; }", [], "unknown class 'Q'"),
]


@pytest.mark.parametrize("source, args, expected", ORACLE_VALUES)
def test_oracle_branch_value(source, args, expected):
    assert run_function(source, "f", args) == expected


@pytest.mark.parametrize("source, args, message", ORACLE_ERRORS)
def test_oracle_branch_error(source, args, message):
    with pytest.raises(InterpreterError, match=message):
        run_function(source, "f", args)


def test_oracle_statement_entry_points():
    from repro.lang import ast_nodes as ast
    from repro.lang.interpreter import Environment
    from repro.lang.stdlib import static_field
    from repro.lang.types import INT

    interpreter = Interpreter()
    # run_statements: a return ends the list without escaping.
    interpreter.run_statements([ast.Return(ast.IntLit(1))], Environment())
    with pytest.raises(InterpreterError, match="unknown statement Stmt"):
        interpreter.exec_stmt(ast.Stmt(), Environment())
    with pytest.raises(InterpreterError, match="unknown expression Expr"):
        interpreter.eval_expr(ast.Expr(), Environment())
    with pytest.raises(InterpreterError, match="unknown binary operator '\\?\\?'"):
        interpreter.apply_binop("??", 1, 2)
    with pytest.raises(InterpreterError, match="unknown unary operator '\\?'"):
        interpreter.eval_expr(ast.UnOp("?", ast.IntLit(1)), Environment())
    with pytest.raises(InterpreterError, match="cannot instantiate int"):
        interpreter.eval_expr(ast.NewObject(INT, []), Environment())
    with pytest.raises(InterpreterError, match="invalid assignment target"):
        interpreter._store(ast.IntLit(1), 2, Environment())
    assert interpreter._alloc_array(INT, [None]) is None
    with pytest.raises(InterpreterError, match="unmodelled static field Integer.NOPE"):
        static_field("Integer", "NOPE")
    # A static namespace read as a value is an opaque handle.
    handle = run_function("String f() { return System.out; }", "f", [])
    assert isinstance(handle, Instance) and handle.get("name") == "System.out"

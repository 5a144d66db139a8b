"""Property-based tests of the whole pipeline on generated programs.

The strongest invariant this library offers: for any program in the
supported fragment, a verified translation computes exactly what the
sequential interpreter computes.  These tests *generate* small reduction
programs from templates, push them through the full pipeline, and check
that invariant — plus structural properties of the engine substrate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchConfig, translate
from repro.engine import partition_data, sizeof
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import values_equal

# ----------------------------------------------------------------------
# Generated reduction programs

_TEMPLATE = """
double f(double[] data, int n) {{
  double acc = {init};
  for (int i = 0; i < n; i++) {{
    {body}
  }}
  return acc;
}}
"""

_BODIES = {
    "sum": ("0", "acc += data[i];"),
    "sum_scaled": ("0", "acc += data[i] * 2.0;"),
    "sum_shifted": ("0", "acc += data[i] + 1.0;"),
    "sum_squares": ("0", "acc += data[i] * data[i];"),
    "max": ("-1.0e308", "acc = Math.max(acc, data[i]);"),
    "min": ("1.0e308", "acc = Math.min(acc, data[i]);"),
    "abs_sum": ("0", "acc += Math.abs(data[i]);"),
    "guarded_sum": ("0", "if (data[i] > 0.5) acc += data[i];"),
    "guarded_count": ("0", "if (data[i] < 0.0) acc += 1.0;"),
}

_COMPILED: dict[str, object] = {}


def _compiled(kind: str):
    if kind not in _COMPILED:
        init, body = _BODIES[kind]
        source = _TEMPLATE.format(init=init, body=body)
        result = translate(source, search_config=SearchConfig(timeout_seconds=60))
        assert result.translated == 1, f"{kind} must translate"
        _COMPILED[kind] = (source, result.fragments[0])
    return _COMPILED[kind]


@pytest.mark.parametrize("kind", sorted(_BODIES))
def test_reduction_template_translates_and_proves(kind):
    _source, fragment = _compiled(kind)
    proof = fragment.program.programs[0].proof
    assert proof.status in ("proved", "unknown")
    # Every reduction over doubles here is commutative-associative.
    assert proof.is_commutative and proof.is_associative


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BODIES)),
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        max_size=30,
    ),
)
def test_translation_agrees_with_interpreter(kind, data):
    source, fragment = _compiled(kind)
    outputs = fragment.program.run({"data": list(data), "n": len(data)}).outputs
    expected = Interpreter(parse_program(source)).call_function(
        "f", [list(data), len(data)]
    )
    assert values_equal(outputs["acc"], expected), (kind, data)


@settings(max_examples=8, deadline=None)
@given(
    kind=st.sampled_from(["sum", "max", "guarded_sum"]),
    data=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), max_size=20
    ),
    backend=st.sampled_from(["spark", "hadoop", "flink"]),
)
def test_backends_agree_on_generated_programs(kind, data, backend):
    source, fragment = _compiled(kind)
    generated = fragment.program.programs[0]
    original_backend = generated.backend
    try:
        generated.backend = backend
        outcome = generated.run({"data": list(data), "n": len(data)})
    finally:
        generated.backend = original_backend
    expected = Interpreter(parse_program(source)).call_function(
        "f", [list(data), len(data)]
    )
    assert values_equal(outcome.outputs["acc"], expected)


# ----------------------------------------------------------------------
# Engine substrate properties


@given(
    st.lists(st.integers(), max_size=200),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_partitioning_preserves_records(data, partitions):
    parts = partition_data(list(data), partitions)
    flattened = [record for part in parts for record in part]
    assert flattened == data


@given(
    st.recursive(
        st.one_of(
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
            st.floats(allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.text(max_size=10),
        ),
        lambda inner: st.tuples(inner, inner),
        max_leaves=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_sizeof_is_positive_and_deterministic(value):
    assert sizeof(value) > 0
    assert sizeof(value) == sizeof(value)


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_engine_wordcount_matches_python_counter(words):
    from collections import Counter

    from repro.engine import EngineConfig, SimSparkContext

    context = SimSparkContext(EngineConfig())
    counts = (
        context.parallelize(list(words))
        .map_to_pair(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect_as_map()
    )
    assert counts == dict(Counter(words))


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=100)
)
@settings(max_examples=40, deadline=None)
def test_combiner_plan_equals_noncombiner_plan(data):
    """Combiners must never change results, only data movement."""
    from repro.engine import EngineConfig, SimSparkContext

    def run(use_combiner):
        context = SimSparkContext(EngineConfig())
        pairs = context.parallelize(list(data)).map_to_pair(lambda x: (x % 7, x))
        if use_combiner:
            reduced = pairs.reduce_by_key(lambda a, b: a + b)
        else:
            reduced = pairs.group_by_key().map_values(lambda vs: sum(vs))
        return reduced.collect_as_map()

    assert run(True) == run(False)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_interpreter_is_deterministic(n, cols):
    source = """
    int f(int[][] m, int rows, int cols) {
      int s = 0;
      for (int i = 0; i < rows; i++)
        for (int j = 0; j < cols; j++)
          s += m[i][j] * (i + 1) - j;
      return s;
    }
    """
    program = parse_program(source)
    matrix = [[(i * cols + j) % 13 for j in range(cols)] for i in range(n)]
    first = Interpreter(program).call_function("f", [matrix, n, cols])
    second = Interpreter(program).call_function("f", [matrix, n, cols])
    assert first == second

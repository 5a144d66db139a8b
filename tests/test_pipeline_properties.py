"""Property-based tests of the whole pipeline on generated programs.

The strongest invariant this library offers: for any program in the
supported fragment, a verified translation computes exactly what the
sequential interpreter computes.  These tests *generate* small reduction
programs from templates, push them through the full pipeline, and check
that invariant — plus structural properties of the engine substrate.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, namedtuple
from operator import is_

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SearchConfig, translate
from repro.engine import (
    MapStep,
    MultiprocessEngine,
    ReduceStep,
    dataset_bytes,
    pairs_bytes,
    partition_data,
    sizeof,
    sizeof_pair,
)
from repro.codegen.kernels import CompiledReduce
from repro.engine.columnar import (
    ColumnSpec,
    build_chunk,
    count_keys,
    fold_columns,
)
from repro.engine.sizes import pair_columns_bytes, uniform_size
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.ir.nodes import BinOp, Var
from repro.lang.values import Instance, values_equal

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
    outcome = generated.run({"data": list(data), "n": len(data)}, backend=backend)
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


# dataset_bytes is sizeof summed, a chunk at a time: the strategies below
# draw chunks on both sides of every reason the kernel has to hand a
# column (or the whole chunk) back to the walker.


class _Color(enum.IntEnum):
    RED = 1
    WIDE = 2**40


class _Tag(str):
    pass


_Point = namedtuple("_Point", "x y")


def _self_containing_list():
    cyclic: list = [1, "a"]
    cyclic.append(cyclic)
    return cyclic


def _self_containing_instance():
    cyclic = Instance("Node", {"x": 1})
    cyclic.fields["me"] = cyclic
    return cyclic


_SMALL_INTS = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_SCALAR_COLUMNS = [
    _SMALL_INTS,
    # Both sides of ±2³¹, boundaries included.
    st.one_of(
        st.sampled_from([-(2**31) - 1, -(2**31), 2**31 - 1, 2**31]),
        st.integers(min_value=-(2**40), max_value=2**40),
    ),
    st.floats(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.one_of(_SMALL_INTS, st.booleans()),
    st.one_of(st.text(max_size=4), st.none(), st.floats()),
]
#: Values only the walker may price.
_WALKER_ONLY = st.one_of(
    st.sampled_from([_Color.RED, _Color.WIDE, _Tag("t"), _Point(1, "p")]),
    st.builds(_self_containing_list),
    st.builds(lambda xs: np.asarray(xs, dtype=np.int64), st.lists(_SMALL_INTS)),
    st.builds(lambda xs: np.asarray(xs, dtype=object), st.lists(st.text())),
    st.just(np.float64(1.5)),
    st.lists(_SMALL_INTS, max_size=3),
    st.frozensets(_SMALL_INTS, max_size=3).map(set),
    st.dictionaries(st.text(max_size=2), _SMALL_INTS, max_size=2),
)


def _instances(*fields):
    names = [f"f{i}" for i in range(len(fields))]
    return st.tuples(*fields).map(lambda vs: Instance("Row", dict(zip(names, vs))))


def _row_shapes(depth: int):
    """Strategies for one record: scalars, and tuples / Instances of a
    fixed schema nested up to ``depth`` container levels (the kernel
    proves two; the third is there to be refused)."""
    columns = st.sampled_from(_SCALAR_COLUMNS)
    if depth == 0:
        return columns
    fields = st.lists(st.one_of(columns, _row_shapes(depth - 1)), max_size=4)
    return st.one_of(
        columns,
        fields.map(lambda fs: st.tuples(*fs)),
        fields.map(lambda fs: _instances(*fs)),
    )


@st.composite
def _chunks(draw):
    shape = draw(_row_shapes(3))
    rows = draw(st.lists(shape, max_size=12))
    # A second schema (ragged arity, another type) and walker-only rows
    # break the chunk's homogeneity at drawn positions.
    strays = draw(
        st.lists(st.one_of(draw(_row_shapes(2)), _WALKER_ONLY), max_size=2)
    )
    for stray in strays:
        rows.insert(draw(st.integers(0, len(rows))), stray)
    containers = [i for i, row in enumerate(rows) if type(row) in (tuple, Instance)]
    if containers and draw(st.booleans()):
        index = draw(st.sampled_from(containers))
        rows[index] = _reshaped(
            rows[index], draw(st.sampled_from(["widen", "rename", "ordered"]))
        )
    return rows


def _reshaped(row, how: str):
    """The same record at another arity, or (an Instance) under other
    field names or with a field table that is not exactly a dict."""
    if type(row) is tuple:
        return row + (0,)
    if how == "widen":
        return Instance("Row", {**row.fields, "extra": 0})
    if how == "rename":
        return Instance("Row", {f"{k}_": v for k, v in row.fields.items()})
    return Instance("Row", OrderedDict(row.fields))


@st.composite
def _aliased_chunks(draw):
    """Rows of two container fields and an int; in a drawn subset of the
    rows one child object sits in both fields — side by side, or (``deep``)
    one level further down — which one record's walk charges once."""
    child = st.one_of(
        st.tuples(_SMALL_INTS, st.text(max_size=3)),
        _instances(_SMALL_INTS, st.floats()),
    )
    rows = draw(st.lists(st.tuples(child, _SMALL_INTS, child), min_size=1, max_size=8))
    shared = draw(st.sets(st.integers(0, len(rows) - 1)))
    as_instance = draw(st.booleans())
    deep = draw(st.booleans())
    out = []
    for index, (a, n, b) in enumerate(rows):
        if index in shared:
            b = a
        fields = (a, n, (b, n)) if deep else (a, n, b)
        out.append(
            Instance("Row", dict(zip("abc", fields))) if as_instance else fields
        )
    return out


def _walked(records):
    return sum(sizeof(record) for record in records)


@given(st.one_of(_chunks(), _aliased_chunks()))
@settings(max_examples=400, deadline=None)
def test_dataset_bytes_is_the_summed_walk(rows):
    expected = _walked(rows)
    assert dataset_bytes(rows) == expected
    assert dataset_bytes(tuple(rows)) == expected
    assert dataset_bytes(iter(rows)) == expected
    # Key and value walk with separate visited sets, aliased or not.
    for pairs in ([(r, r) for r in rows], list(zip(rows, reversed(rows)))):
        assert pairs_bytes(pairs) == sum(sizeof_pair(k, v) for k, v in pairs)
        # ... while a map stage's emitted *tuples* charge a key that is
        # its own value container once, from the columns as from rows.
        keys, values = [k for k, _ in pairs], [v for _, v in pairs]
        assert pair_columns_bytes(keys, values) == _walked(pairs)
    size = uniform_size(rows) if rows else None
    assert size is None or {sizeof(row) for row in rows} == {size}


#: Per-field value strategies a column guard must tell apart.
_EDGE_COLUMNS = [
    _SMALL_INTS,
    st.sampled_from([-(2**31) - 1, -(2**31), 2**31 - 1, 2**31, 2**63 - 1, -(2**63)]),
    st.one_of(_SMALL_INTS, st.sampled_from([2**63, -(2**63) - 1])),  # past int64
    st.one_of(_SMALL_INTS, st.just(True)),  # True in an int field
    st.floats(),  # NaN, ±inf, -0.0
    st.booleans(),
    st.one_of(st.floats(), st.none()),
]


@st.composite
def _edge_chunks(draw):
    """Homogeneous rows of up to three edge-valued fields: the records
    themselves (one field), tuples, or Instances over ``f0``…"""
    width = draw(st.integers(1, 3))
    columns = [draw(st.sampled_from(_EDGE_COLUMNS)) for _ in range(width)]
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=8))
    form = draw(st.sampled_from(["self", "tuple", "instance"]))
    if form == "self":
        return [row[0] for row in rows]
    if form == "tuple":
        return rows
    return [Instance("Row", {f"f{i}": v for i, v in enumerate(row)}) for row in rows]


@st.composite
def _column_specs(draw):
    """Live specs of every access and kind, naming fields and positions
    the drawn rows have — and some they do not."""
    names = st.sampled_from(["f0", "f1", "f2", "a", "b", "f0_", "extra"])
    specs = []
    for index in range(draw(st.integers(0, 4))):
        access = draw(st.sampled_from(["self", "field", "index"]))
        kind = draw(st.sampled_from(["int", "float", "bool"]))
        field = draw(names) if access == "field" else None
        position = draw(st.integers(-2, 3)) if access == "index" else None
        specs.append(ColumnSpec(f"s{index}", kind, access, field, position))
    return tuple(specs)


def _extracted_column(rows, spec):
    """The oracle: what one spec's own pass over the rows validates."""
    try:
        if spec.access == "self":
            data = list(rows)
        elif spec.access == "field":
            data = [row.fields[spec.field] for row in rows]
        else:
            data = [row[spec.position] for row in rows]
    except (AttributeError, KeyError, IndexError, TypeError):
        return None
    exact = {"int": int, "float": float, "bool": bool}[spec.kind]
    if any(type(value) is not exact for value in data):
        return None
    if spec.kind == "int" and not all(-(2**63) <= value < 2**63 for value in data):
        return None
    dtype = {"int": np.int64, "float": np.float64, "bool": np.bool_}[spec.kind]
    return np.asarray(data, dtype=dtype)


@given(st.one_of(_chunks(), _aliased_chunks(), _edge_chunks()), _column_specs())
@example(  # row[-1] is the last position, as a per-spec extraction reads it
    rows=[(1, 2.5), (3, 4.5)],
    specs=(ColumnSpec("s0", "float", "index", position=-1),),
)
@settings(max_examples=400, deadline=None)
def test_built_chunk_is_priced_and_extracted_like_its_rows(rows, specs):
    columns, row_bytes = build_chunk(rows, specs)
    assert row_bytes == _walked(rows)
    for spec in specs:
        expected = _extracted_column(rows, spec)
        column = columns[spec.name]
        if expected is None:
            assert column is None, spec
        else:
            assert column is not None, spec
            assert column.dtype == expected.dtype, spec
            assert column.tobytes() == expected.tobytes(), spec  # NaN-safe


_NAMED_CHUNKS = {
    "empty": [],
    "str": ["a", "b"],
    "float": [1.5, 2.5],
    "bool": [True, False],
    "none": [None, None],
    "int32": [1, 2**31 - 1, -(2**31)],
    "int64": [2**31, 2**40],
    "int32_and_int64": [1, 2**31],
    "int_and_bool": [1, True],
    "flat_tuples": [(1, "a"), (2, "b")],
    "nested_tuples": [(1, (2.0, "x")), (3, (4.0, "y"))],
    "too_deep": [(1, (2, (3,))), (4, (5, (6,)))],
    "ragged": [(1, 2), (1, 2, 3)],
    "nested_instances": [
        Instance("P", {"x": i, "d": Instance("Date", {"epoch": 2**33})})
        for i in range(3)
    ],
    "renamed_fields": [Instance("P", {"x": 1}), Instance("P", {"y": 2**40})],
    "field_table_not_a_dict": [
        Instance("P", {"x": 1}),
        Instance("P", OrderedDict(x=2**40)),
    ],
    "scalar_subclasses": [_Color.RED, _Tag("t"), _Point(1, 2)],
    "ndarrays": [np.arange(4), np.asarray([1.5])],
    "self_containing_list": [_self_containing_list()],
    "self_containing_instance": [_self_containing_instance()],
}


@pytest.mark.parametrize("name", sorted(_NAMED_CHUNKS))
def test_dataset_bytes_named_cases(name):
    rows = _NAMED_CHUNKS[name]
    assert dataset_bytes(rows) == _walked(rows)


@pytest.mark.parametrize(
    "column, size",
    [
        (["a", "b"], 40),
        ([1.5, 2.5], 8),
        ([True, False], 10),
        ([None, None], 4),
        ([1, 2**31 - 1, -(2**31)], 4),
        ([2**31, 2**40], 8),
        ([-(2**31) - 1, -(2**40)], 8),
        ([1, 2**31], None),  # ints on both sides of 2³¹
        ([1, True], None),
        ([1, 1.0], None),
        ([(1, 2), (3, 4)], None),  # containers are the walker's
        ([_Tag("t")], None),
    ],
)
def test_uniform_size_named_cases(column, size):
    assert uniform_size(column) == size


def test_dataset_bytes_charges_an_aliased_child_once_per_record():
    shared = (1, "a")
    rows = [(shared, shared), ((2, "b"), (3, "c"))]
    assert dataset_bytes(rows) == _walked(rows) == (8 + 52) + (8 + 52 + 52)
    holder = Instance("H", {"a": shared, "b": shared})
    assert dataset_bytes([holder, holder]) == 2 * sizeof(holder) == 2 * (16 + 52)


def test_shuffled_bytes_price_an_aliased_pair_as_sizeof_pair():
    """The engine's shuffle counter is Σ sizeof_pair — key and value
    walked apart — not Σ sizeof((k, v)) − 8, which charges a pair whose
    key *is* its value once."""
    keys = [(i % 5, "k") for i in range(40)]

    def emit(record):
        return [(record, record)]

    result = MultiprocessEngine(processes=0).run_pipeline(
        keys, [MapStep(emit), ReduceStep(lambda a, b: a, combine=False)]
    )
    shuffled = result.metrics.bytes_shuffled
    assert shuffled == sum(sizeof_pair(k, k) for k in keys)
    assert shuffled != sum(sizeof((k, k)) - 8 for k in keys)


_COUNT_KEY_KINDS = (
    st.text(max_size=3),
    st.integers(-3, 3),
    st.floats() | st.sampled_from([0.0, -0.0, float("nan")]),
    st.tuples(st.integers(-2, 2), st.text(max_size=2)),
    st.sampled_from([1, True, 1.0]),
)
_SUM_FOLD = CompiledReduce(BinOp("+", Var("v1"), Var("v2")), ("v1", "v2"), {})


@given(
    st.one_of(
        *(st.lists(kind, max_size=40) for kind in _COUNT_KEY_KINDS),
        st.lists(st.one_of(*_COUNT_KEY_KINDS), max_size=40),
    ),
    st.sampled_from([0, 1, -1, 3, 2**31, -(2**31) - 1, 2**63]),
)
@example([], 1)
@settings(max_examples=300, deadline=None)
def test_counting_combine_is_the_sum_fold(keys, constant):
    """``count_keys`` is the ``+`` fold of a constant-int value column:
    the same key objects in the same order, the same values of the same
    exact types; and the arithmetic price is the column-wise one."""
    values = [constant] * len(keys)
    acc: dict = {}
    fold_columns(_SUM_FOLD, keys, values, acc)
    counted_keys, counted_values = count_keys(keys, constant)
    assert len(counted_keys) == len(acc) and all(map(is_, counted_keys, acc))
    assert counted_values == list(acc.values())
    assert list(map(type, counted_values)) == list(map(type, acc.values()))
    assert pair_columns_bytes(keys, values, sizeof(constant)) == pair_columns_bytes(
        keys, values
    )


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

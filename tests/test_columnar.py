"""Columnar chunk layout: exactness guards, caching, shuffle, no knobs.

Unit tests for :mod:`repro.engine.columnar` and the machinery around it:
column extraction only materializes arrays the type promise licenses,
guard trips (int64 overflow, NaN/inf, mixed types) fall back to the
compiled row loop with byte-identical results, the grouped array fold
matches the ordered dict combine exactly, spilled column blocks expand
to the same pair stream the row writer produces, the zero-copy
shared-memory payload round-trips, and the column path — the only one,
with no ``layout`` knob left to validate — matches the row oracle end to
end.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.codegen.base import prepare_globals, view_records
from repro.codegen.kernels import CompiledRecordMapper
from repro.engine.columnar import (
    ColumnBlock,
    ColumnChunk,
    ColumnSpec,
    build_chunk,
    build_column,
    grouped_fold,
    resolve_columns,
)
from repro.engine.config import EngineConfig
from repro.engine.multiprocess import MultiprocessEngine
from repro.engine.sizes import (
    OBJECT_HEADER,
    dataset_bytes,
    pairs_bytes,
    sizeof,
    sizeof_pair,
)
from repro.engine.spill import SpillWriter, read_run
from repro.graph.executor import interpret_fragment
from repro.options import ExecOptions
from repro.planner.plan import forced_plan
from repro.workloads import get_benchmark
from differential import run_oracle
from suite_cache import compiled

RUN_SIZE = 200


def _mapper(name: str):
    compilation = compiled(name)
    fragment = [f for f in compilation.fragments if f.translated][0]
    program = fragment.program.programs[0]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    stage = program.summary.pipeline.stages[0]
    records = view_records(fragment.analysis.view, inputs)
    mapper = CompiledRecordMapper(
        emits=stage.lam.emits,
        globals_env=globals_env,
        view=program.analysis.view,
    )
    return mapper, records


def _engine() -> MultiprocessEngine:
    config = EngineConfig().with_framework("multiprocess")
    return MultiprocessEngine(config=config, processes=0)


def _steps(name: str, inputs, oracle: bool = False):
    """The production (compiled, column-chunk) steps, or the row oracle's."""
    compilation = compiled(name)
    fragment = [f for f in compilation.fragments if f.translated][0]
    program = fragment.program.programs[0]
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    if oracle:
        return program.oracle_steps(globals_env)
    return program.local_steps(globals_env)


def _pairs_equal(lhs: list, rhs: list) -> bool:
    """Exact pair-list equality, except NaN compares equal to NaN.

    ``==`` is the right assertion everywhere else (bit-identity is the
    contract), but two row-loop runs produce distinct NaN objects and
    ``nan != nan`` would fail a comparison that is in fact identical.
    """
    if len(lhs) != len(rhs):
        return False
    for (lk, lv), (rk, rv) in zip(lhs, rhs):
        for a, b in ((lk, rk), (lv, rv)):
            same_nan = (
                type(a) is float
                and type(b) is float
                and math.isnan(a)
                and math.isnan(b)
            )
            if not same_nan and (type(a) is not type(b) or a != b):
                return False
    return True


# ----------------------------------------------------------------------
# Column extraction: the exact-type promise


INT_SPEC = ColumnSpec(name="v", kind="int", access="self")


def test_build_column_exact_types_only():
    assert build_column([1, 2, 3], INT_SPEC).dtype == np.int64
    # bool is a subclass of int but a different runtime type: eval
    # emits True where int64 would emit 1.
    assert build_column([1, True, 3], INT_SPEC) is None
    assert build_column([1, 2.0, 3], INT_SPEC) is None
    float_spec = ColumnSpec(name="v", kind="float", access="self")
    assert build_column([1.0, 2, 3.0], float_spec) is None
    assert build_column([1.0, 2.5], float_spec).dtype == np.float64


def test_build_column_refuses_out_of_int64_values():
    # Python ints are bignums; the row loop keeps them exact, int64
    # would wrap.  The column must refuse, not truncate.
    assert build_column([1, 2**70], INT_SPEC) is None
    assert build_column([2**63 - 1, -(2**63)], INT_SPEC) is not None


def test_chunk_caches_extracted_columns():
    chunk = ColumnChunk([1, 2, 3])  # no column extracted yet
    first = resolve_columns(chunk, (INT_SPEC,))
    second = resolve_columns(chunk, (INT_SPEC,))
    assert first["v"] is second["v"], "second resolve must reuse the array"
    assert "v" in chunk.columns
    # A failed column is cached too, so repeated kernels skip the probe.
    dirty = build_chunk([1, "oops"], (INT_SPEC,))
    assert resolve_columns(dirty, (INT_SPEC,)) is None
    assert dirty.columns["v"] is None
    # The cache survives pickling (workers skip re-extraction).
    clone = pickle.loads(pickle.dumps(chunk))
    assert isinstance(clone, ColumnChunk) and "v" in clone.columns
    # A plain list has nowhere to keep a column: extracted every time.
    rows = [1, 2, 3]
    assert resolve_columns(rows, (INT_SPEC,))["v"] is not resolve_columns(
        rows, (INT_SPEC,)
    )["v"]


def test_column_chunk_iterates_as_rows():
    rows = [(0, 10), (1, 20)]
    spec = ColumnSpec(name="x", kind="int", access="index", position=1)
    chunk = build_chunk(rows, (spec,))
    assert len(chunk) == 2 and list(chunk) == rows and chunk[1] == (1, 20)
    assert chunk.columns["x"].tolist() == [10, 20]
    clone = pickle.loads(pickle.dumps(chunk))
    assert isinstance(clone, ColumnChunk)
    assert clone.columns["x"].tolist() == [10, 20]


# ----------------------------------------------------------------------
# ColumnBlock: pair reconstruction and byte accounting


def test_column_block_pairs_and_sizes_match_row_accounting():
    block = ColumnBlock(
        values=np.asarray([1.5, 2.5, 3.5]),
        keys=np.asarray([7, 2**40, 7], dtype=np.int64),
    )
    pairs = block.pairs()
    assert pairs == [(7, 1.5), (2**40, 2.5), (7, 3.5)]
    assert all(type(k) is int and type(v) is float for k, v in pairs)
    assert block.pair_sizes() == [sizeof_pair(k, v) for k, v in pairs]
    assert block.stage_bytes() == sum(sizeof(p) for p in pairs)
    const = ColumnBlock(values=np.asarray([1, 2], dtype=np.int64), key_const=0)
    assert const.pairs() == [(0, 1), (0, 2)]
    assert const.key_list() == [0, 0]


_STRADDLING = [-(2**31) - 1, -(2**31), -1, 0, 2**31 - 1, 2**31, 2**62, -(2**63)]


@pytest.mark.parametrize(
    "block",
    [
        ColumnBlock(
            values=np.asarray(_STRADDLING, dtype=np.int64),
            keys=np.asarray(list(reversed(_STRADDLING)), dtype=np.int64),
        ),
        ColumnBlock(
            values=np.asarray([1.5, -0.0, float("nan"), 2.5]),
            keys=np.asarray([2**31, 1, -(2**31) - 1, 2**31], dtype=np.int64),
        ),
        ColumnBlock(
            values=np.asarray([True, False, True]),
            keys=np.asarray([0.5, 1.5, 0.5]),
        ),
        ColumnBlock(values=np.asarray(_STRADDLING, dtype=np.int64), key_const="k"),
        ColumnBlock(values=np.asarray([1.0, 2.0]), key_const=2**40),
        ColumnBlock(values=np.asarray([False, True]), key_const=(1, "a", 2.0)),
        ColumnBlock(values=np.asarray([], dtype=np.int64), key_const="k"),
        ColumnBlock(
            values=np.asarray([], dtype=np.float64),
            keys=np.asarray([], dtype=np.int64),
        ),
    ],
    ids=[
        "int-keys-and-values-across-2^31",
        "float-values",
        "bool-values-float-keys",
        "const-str-key",
        "const-int64-key",
        "const-tuple-key",
        "empty-const",
        "empty-keyed",
    ],
)
def test_column_block_bytes_are_the_pairs_bytes(block):
    pairs = block.pairs()
    assert block.stage_bytes() == dataset_bytes(pairs)
    assert block.shuffle_bytes() == pairs_bytes(pairs)
    assert block.shuffle_bytes() == sum(block.pair_sizes())


# ----------------------------------------------------------------------
# grouped_fold == the ordered dict combine, bit for bit


def _dict_fold(pairs, op):
    fns = {"sum": lambda a, b: a + b, "min": min, "max": max}[op]
    grouped: dict = {}
    for key, value in pairs:
        grouped[key] = fns(grouped[key], value) if key in grouped else value
    return list(grouped.items())


@pytest.mark.parametrize("op", ["sum", "min", "max"])
def test_grouped_fold_matches_dict_combine(op):
    rng = np.random.default_rng(3)
    keys = np.asarray(rng.integers(0, 5, size=200), dtype=np.int64)
    values = np.asarray(rng.integers(-1000, 1000, size=200), dtype=np.int64)
    block = ColumnBlock(values=values, keys=keys)
    folded = grouped_fold(block, op)
    assert folded == _dict_fold(block.pairs(), op)

    fblock = ColumnBlock(values=rng.standard_normal(200), keys=keys)
    ffolded = grouped_fold(fblock, op)
    assert ffolded == _dict_fold(fblock.pairs(), op)


def test_grouped_fold_constant_key_and_empty():
    values = np.asarray([0.1, 0.2, 0.3, 0.4])
    block = ColumnBlock(values=values, key_const=0)
    assert grouped_fold(block, "sum") == _dict_fold(block.pairs(), "sum")
    empty = ColumnBlock(values=np.asarray([], dtype=np.int64), key_const=0)
    assert grouped_fold(empty, "sum") == []


def test_grouped_fold_refuses_hazardous_shapes():
    v = np.asarray([1.0, 2.0])
    # NaN keys group by identity in dicts; -0.0 == 0.0 picks a face.
    assert grouped_fold(ColumnBlock(values=v, keys=np.asarray([np.nan, 1.0])), "sum") is None
    assert grouped_fold(ColumnBlock(values=v, keys=np.asarray([-0.0, 1.0])), "sum") is None
    # NaN values: np.minimum propagates, Python min() is order-dependent.
    assert grouped_fold(
        ColumnBlock(values=np.asarray([np.nan, 1.0]), keys=np.asarray([1, 1], dtype=np.int64)),
        "min",
    ) is None
    # An int sum whose partial could wrap int64 must refuse.
    big = ColumnBlock(
        values=np.asarray([2**62, 2**62, 2**62], dtype=np.int64),
        keys=np.asarray([1, 1, 1], dtype=np.int64),
    )
    assert grouped_fold(big, "sum") is None
    assert grouped_fold(big, "max") == _dict_fold(big.pairs(), "max")


# ----------------------------------------------------------------------
# Guard regressions: dirty data == row engine exactly (satellite 3)


def test_int_overflow_chunk_falls_back_to_row_loop():
    mapper, _records = _mapper("fiji_invert")  # emits 255 - img over ints
    assert mapper.vectorized
    clean = [(i, i % 256) for i in range(64)]
    assert mapper.map_block(clean) is not None
    # 255 - (-2**62) stays in int64 but the conservative bound guard
    # still must not wrap anywhere; push values where 255 - v overflows.
    hot = [(i, -(2**63) + 1) for i in range(4)]
    rows = mapper.map_rows(hot)
    assert mapper.map_block(hot) is None and mapper.last_chunk_fallback
    assert mapper.map_chunk(hot) == rows
    # Out-of-int64 bignums never reach the array: the column refuses.
    bignum = [(0, 2**70)]
    assert mapper.map_block(bignum) is None
    assert mapper.map_chunk(bignum) == mapper.map_rows(bignum)


def test_nonfinite_float_chunk_falls_back_to_row_loop():
    mapper, _records = _mapper("stats_l2_norm_sq")  # emits x*x over floats
    assert mapper.vectorized
    for poison in (float("nan"), float("inf"), 1e200):  # 1e200**2 == inf
        hot = [(i, v) for i, v in enumerate([1.0, poison, 2.0])]
        assert mapper.map_block(hot) is None and mapper.last_chunk_fallback
        assert _pairs_equal(mapper.map_chunk(hot), mapper.map_rows(hot))


def test_mixed_type_column_falls_back_to_row_loop():
    mapper, records = _mapper("ariths_sum")
    dirty = list(records) + [(len(records), 1.5)]  # float in an int column
    assert mapper.map_block(dirty) is None
    assert mapper.map_chunk(dirty) == mapper.map_rows(dirty)


@pytest.mark.parametrize(
    "poison",
    [2**70, -(2**63) + 7, float("nan"), float("inf"), "oops"],
    ids=["bignum", "near-int64-min", "nan", "inf", "string-in-int"],
)
def test_dirty_data_identical_across_layouts_in_engine(poison):
    # The two layouts left: column chunks under the compiled kernels
    # (production) and plain rows under the evaluator (the oracle).
    name = "ariths_sum"
    records = [(i, v) for i, v in enumerate([3, -2, poison, 5, 0])]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    try:
        rows_result = _engine().run_pipeline(
            records, _steps(name, inputs, oracle=True)
        )
    except Exception as exc:
        # Whatever the row oracle raises (e.g. IRError on the string),
        # the columnar path must raise the same class — not crash
        # differently and not "succeed" with numpy coercion.
        with pytest.raises(type(exc)):
            _engine().run_pipeline(records, _steps(name, inputs))
        return
    cols_result = _engine().run_pipeline(records, _steps(name, inputs))
    assert _pairs_equal(rows_result.pairs, cols_result.pairs)
    assert cols_result.guard_fallbacks + cols_result.columnar_chunks >= 1


def test_guard_fallbacks_are_counted():
    name = "stats_l2_norm_sq"
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    records = [(i, v) for i, v in enumerate([1.0, float("nan"), 2.0])]
    result = _engine().run_pipeline(records, _steps(name, inputs))
    assert result.guard_fallbacks >= 1
    stats = result.columnar_stats()
    assert stats is not None and stats["guard_fallbacks"] == result.guard_fallbacks
    clean = [(i, float(i)) for i in range(50)]
    result = _engine().run_pipeline(clean, _steps(name, inputs))
    assert result.columnar_chunks >= 1 and result.guard_fallbacks == 0


# ----------------------------------------------------------------------
# sizeof prices arrays and column chunks (satellite 2)


def test_sizeof_prices_ndarrays_flat():
    array = np.arange(10, dtype=np.int64)
    assert sizeof(array) == OBJECT_HEADER + 80
    assert sizeof(np.asarray([1.0, 2.0])) == OBJECT_HEADER + 16
    ragged = np.asarray(["a", "bb"], dtype=object)
    assert sizeof(ragged) == OBJECT_HEADER + 2 * sizeof("a")


def test_sizeof_prices_column_chunks_via_model():
    rows = [(0, 10), (1, 20)]
    spec = ColumnSpec(name="x", kind="int", access="index", position=1)
    chunk = build_chunk(rows, (spec,))
    expected = (
        OBJECT_HEADER
        + sum(sizeof(row) for row in rows)
        + OBJECT_HEADER
        + int(chunk.columns["x"].nbytes)
    )
    assert sizeof(chunk) == expected


# ----------------------------------------------------------------------
# An input chunk is priced where it is built


def _stage_bytes(result) -> list[tuple]:
    return [
        (s.name, s.bytes_in, s.bytes_out, s.bytes_shuffled)
        for s in result.metrics.stages
    ]


def test_built_chunk_keeps_its_byte_count_through_pickle():
    mapper, records = _mapper("tpch_q15")
    chunk = build_chunk(records, mapper.columns_spec)
    assert chunk.row_bytes == dataset_bytes(records) == sum(map(sizeof, records))
    clone = pickle.loads(pickle.dumps(chunk))
    assert clone.row_bytes == chunk.row_bytes
    assert sizeof(clone) == sizeof(chunk)


def test_pool_scan_charge_is_the_sequential_one():
    name = "tpch_q15"
    _, records = _mapper(name)
    steps = _steps(name, get_benchmark(name).make_inputs(RUN_SIZE, 7))
    inline = MultiprocessEngine(processes=0).run_pipeline(records, steps)
    pooled = MultiprocessEngine(processes=2, min_parallel_records=100).run_pipeline(
        records, steps
    )
    assert pooled.map_tasks > 0 and pooled.fallback_reason is None
    assert pooled.columnar_chunks == inline.columnar_chunks > 0
    assert pooled.guard_fallbacks == inline.guard_fallbacks == 0
    assert _stage_bytes(pooled) == _stage_bytes(inline)
    scan = pooled.metrics.stages[0]
    assert scan.name == "scan" and scan.bytes_in == dataset_bytes(records)
    assert pooled.pairs == inline.pairs


def test_guard_trip_chunk_is_priced_like_its_rows():
    name = "tpch_q15"
    mapper, records = _mapper(name)
    rows = [record.copy() for record in records]
    rows[3].fields["l_suppkey"] = True  # bool is not int: the column refuses
    chunk = build_chunk(rows, mapper.columns_spec)
    assert chunk.columns["l_suppkey"] is None
    assert chunk.columns["l_discount"] is not None
    assert chunk.row_bytes == dataset_bytes(rows) == sum(map(sizeof, rows))
    steps = _steps(name, get_benchmark(name).make_inputs(RUN_SIZE, 7))
    clean = _engine().run_pipeline(records, steps)
    tripped = _engine().run_pipeline(rows, steps)
    # Only the poisoned chunk runs the row loop; every chunk is charged.
    assert tripped.columnar_chunks == clean.columnar_chunks - 1
    assert tripped.metrics.stages[0].bytes_in == dataset_bytes(rows)


# ----------------------------------------------------------------------
# Column-wise spill (tentpole: shuffle moves columns)


def test_spill_add_block_matches_row_adds(tmp_path):
    keys = np.asarray([k % 3 for k in range(40)], dtype=np.int64)
    values = np.asarray([float(k) for k in range(40)])
    block = ColumnBlock(values=values, keys=keys)

    by_rows = SpillWriter(str(tmp_path / "r"), partitions=2, budget_bytes=400)
    (tmp_path / "r").mkdir()
    for key, value in block.pairs():
        by_rows.add(key, value)
    by_rows.finish()

    by_cols = SpillWriter(str(tmp_path / "c"), partitions=2, budget_bytes=400)
    (tmp_path / "c").mkdir()
    by_cols.add_block(block)
    by_cols.finish()

    assert by_cols.key_order == by_rows.key_order
    assert by_cols.pairs_in == by_rows.pairs_in == 40
    assert by_cols.bytes_in == by_rows.bytes_in
    for partition in range(2):
        row_stream = [
            pair
            for path in by_rows.run_files[partition]
            for pair in read_run(path)
        ]
        col_stream = [
            pair
            for path in by_cols.run_files[partition]
            for pair in read_run(path)
        ]
        assert sorted(col_stream) == sorted(row_stream)
        # Within a partition, arrival order per key must be preserved.
        for key in set(keys.tolist()):
            assert [v for k, v in col_stream if k == key] == [
                v for k, v in row_stream if k == key
            ]


def test_spill_block_budget_guard(tmp_path):
    writer = SpillWriter(str(tmp_path), partitions=2, budget_bytes=10)
    block = ColumnBlock(
        values=np.asarray([2**40], dtype=np.int64),
        keys=np.asarray([2**40], dtype=np.int64),
    )
    from repro.errors import SpillError

    with pytest.raises(SpillError, match="smaller than a single record"):
        writer.add_block(block)


# ----------------------------------------------------------------------
# No layout knob: options, engine and planner all refuse or ignore it


def test_exec_options_validate_layout():
    with pytest.raises(TypeError):
        ExecOptions(layout="columns")
    with pytest.raises(ValueError, match="unknown ExecOptions field"):
        ExecOptions.from_dict({"layout": "columns"})
    options = ExecOptions(plan="auto", memory_budget=4096)
    assert ExecOptions.from_dict(options.as_dict()) == options
    assert "layout" not in options.as_dict()


def test_engine_rejects_unknown_layout():
    with pytest.raises(TypeError):
        MultiprocessEngine(layout="columns")
    with pytest.raises(TypeError):
        forced_plan("sequential", layout="columns")


def test_planner_resolves_layout_from_kernel():
    # Nothing to resolve: a planned run of a vectorizable program is on
    # column chunks at any size, and its report names no layout.
    benchmark = get_benchmark("ariths_sum")
    compilation = compiled("ariths_sum")
    fragment = [f for f in compilation.fragments if f.translated][0]
    for size in (20, 5000):
        report = fragment.program.run(
            dict(benchmark.make_inputs(size, 11)), ExecOptions(plan="auto")
        ).report
        summary = report.summary()
        assert "layout" not in summary and "kernel" not in summary
        assert not any("layout" in r or "kernel" in r for r in summary["reasons"])
        assert summary["columnar"]["columnar_chunks"] >= 1
        assert summary["columnar"]["guard_fallbacks"] == 0


def test_layout_knob_end_to_end_identical():
    benchmark = get_benchmark("ariths_dot_product")  # multi-column map
    compilation = compiled("ariths_dot_product")
    fragment = [f for f in compilation.fragments if f.translated][0]
    inputs = benchmark.make_inputs(RUN_SIZE, 7)
    reference = interpret_fragment(fragment.analysis, dict(inputs))
    by_rows, _metrics = run_oracle(
        fragment.program.programs[0], dict(inputs), forced_plan("sequential")
    )
    columns = fragment.program.run(dict(inputs), ExecOptions(plan="sequential"))
    by_cols, report = columns.outputs, columns.report
    assert by_rows == by_cols
    common = set(by_cols) & set(reference)
    assert common and all(by_cols[k] == reference[k] for k in common)
    assert report.columnar is not None and report.columnar["columnar_chunks"] >= 1

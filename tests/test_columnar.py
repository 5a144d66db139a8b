"""Column arrays of the vector tier: exactness guards, shuffle, no knobs.

Unit tests for :mod:`repro.engine.columnar` and the machinery around it:
column extraction only materializes arrays the type promise licenses,
guard trips (int64 overflow, NaN/inf, mixed types) fall back to the
compiled row loop with byte-identical results, the grouped array fold
matches the ordered dict combine exactly, a column block written to the
spill store gives the same pair stream the row writer produces, and the
column path — with no ``layout`` knob left to validate — matches the
row oracle end to end.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest

from repro.codegen.base import prepare_globals, view_records
from repro.codegen.kernels import CompiledRecordMapper
from repro.engine.columnar import (
    ColumnBlock,
    ColumnSpec,
    build_chunk,
    build_column,
    fold_columns,
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


def _block(mapper, rows):
    """The mapper's vector block over ``rows``, or None when a column or
    a guard refuses (what the engine's segment path gets)."""
    columns = resolve_columns(rows, mapper.columns_spec)
    return None if columns is None else mapper.map_block(columns)


def _steps(name: str, inputs, oracle: bool = False):
    """The production (compiled) steps, or the row oracle's."""
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
    assert block.shuffle_bytes() == sum(sizeof_pair(k, v) for k, v in pairs)


# ----------------------------------------------------------------------
# grouped_fold == the ordered dict combine, bit for bit


def _folded_pairs(folded):
    """A one-chunk ``grouped_fold`` result as its pair list."""
    partials, bounds = folded
    assert bounds == [0, len(partials)]
    return partials.pairs()


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
    assert _folded_pairs(folded) == _dict_fold(block.pairs(), op)

    fblock = ColumnBlock(values=rng.standard_normal(200), keys=keys)
    ffolded = grouped_fold(fblock, op)
    assert _folded_pairs(ffolded) == _dict_fold(fblock.pairs(), op)


#: Float values chosen to break a reassociating or reseeded sum.
ADVERSARIAL_FLOATS = (
    1e16, -1e16, 1.0, -1.0, 0.5, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, math.inf, -math.inf, 0.1, 3.0,
)


def _bits(pairs):
    return [(key, struct.pack("d", value)) for key, value in pairs]


def test_float_sum_is_the_row_fold_bit_for_bit():
    """One ``add.at`` from ``-0.0`` is the ordered fold: ±1e16
    cancellation, ±0.0, subnormals, ±1e308 overflowing to ±inf and
    inf - inf = nan included, mostly-distinct keys too — with no
    ``RuntimeWarning`` (the Python fold raises none) — on keyed blocks
    and on the constant-key block of the same values."""
    rng = np.random.default_rng(41)
    for trial in range(400):
        n = int(rng.integers(1, 80))
        keys = rng.integers(0, int(rng.integers(1, n + 1)), size=n).astype(np.int64)
        picks = rng.integers(0, len(ADVERSARIAL_FLOATS), size=n)
        values = np.asarray([ADVERSARIAL_FLOATS[i] for i in picks])
        if trial % 4 == 0:
            values[keys % 2 == 0] = -0.0  # whole groups of -0.0
        for block, block_keys in (
            (ColumnBlock(values=values, keys=keys), keys.tolist()),
            (ColumnBlock(values=values, key_const=0), [0] * n),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = grouped_fold(block, "sum")
            acc: dict = {}
            fold_columns(lambda a, b: a + b, block_keys, values.tolist(), acc)
            assert got is not None
            assert _bits(_folded_pairs(got)) == _bits(acc.items()), trial


def test_grouped_fold_constant_key_and_empty():
    values = np.asarray([0.1, 0.2, 0.3, 0.4])
    block = ColumnBlock(values=values, key_const=0)
    assert _folded_pairs(grouped_fold(block, "sum")) == _dict_fold(block.pairs(), "sum")
    empty = ColumnBlock(values=np.asarray([], dtype=np.int64), key_const=0)
    assert _folded_pairs(grouped_fold(empty, "sum")) == []


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
    assert _folded_pairs(grouped_fold(big, "max")) == _dict_fold(big.pairs(), "max")


# ----------------------------------------------------------------------
# Guard regressions: dirty data == row engine exactly (satellite 3)


def test_int_overflow_chunk_falls_back_to_row_loop():
    mapper, _records = _mapper("fiji_invert")  # emits 255 - img over ints
    assert mapper.vectorized
    clean = [(i, i % 256) for i in range(64)]
    assert _block(mapper, clean).pairs() == mapper.map_rows(clean)
    # 255 - (-2**62) stays in int64 but the conservative bound guard
    # still must not wrap anywhere; push values where 255 - v overflows.
    hot = [(i, -(2**63) + 1) for i in range(4)]
    assert resolve_columns(hot, mapper.columns_spec) is not None
    assert _block(mapper, hot) is None
    assert mapper.map_rows(hot) == [(i, 255 + 2**63 - 1) for i in range(4)]
    # Out-of-int64 bignums never reach the array: the column refuses.
    assert resolve_columns([(0, 2**70)], mapper.columns_spec) is None


def test_nonfinite_float_chunk_falls_back_to_row_loop():
    mapper, _records = _mapper("stats_l2_norm_sq")  # emits x*x over floats
    assert mapper.vectorized
    for poison in (float("nan"), float("inf"), 1e200):  # 1e200**2 == inf
        hot = [(i, v) for i, v in enumerate([1.0, poison, 2.0])]
        assert _block(mapper, hot) is None


def test_mixed_type_column_falls_back_to_row_loop():
    name = "ariths_sum"
    mapper, records = _mapper(name)
    dirty = list(records) + [(len(records), 1.5)]  # float in an int column
    assert _block(mapper, dirty) is None
    # In the engine every chunk either vectorized or tripped a guard,
    # resident and under a budget alike: 11 records, fewer than the
    # partition count, are 11 one-record chunks.
    small = [(i, v) for i, v in enumerate([3, -2, 4, 5, 0, 1, 2, 3, 4, 5, 1.5])]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    for budget in (None, 1 << 20):
        engine = MultiprocessEngine(
            config=EngineConfig().with_framework("multiprocess"),
            processes=0,
            memory_budget=budget,
        )
        result = engine.run_pipeline(small, _steps(name, inputs))
        assert result.guard_fallbacks == 1
        assert result.columnar_chunks + result.guard_fallbacks == len(small)


@pytest.mark.parametrize(
    "poison",
    [2**70, -(2**63) + 7, float("nan"), float("inf"), "oops"],
    ids=["bignum", "near-int64-min", "nan", "inf", "string-in-int"],
)
def test_dirty_data_identical_across_layouts_in_engine(poison):
    # Production (the compiled kernels, a folded vector segment here)
    # against plain rows under the evaluator (the oracle).
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
# sizeof prices arrays flat


def test_sizeof_prices_ndarrays_flat():
    array = np.arange(10, dtype=np.int64)
    assert sizeof(array) == OBJECT_HEADER + 80
    assert sizeof(np.asarray([1.0, 2.0])) == OBJECT_HEADER + 16
    ragged = np.asarray(["a", "bb"], dtype=object)
    assert sizeof(ragged) == OBJECT_HEADER + 2 * sizeof("a")


# ----------------------------------------------------------------------
# An input chunk is priced where it is built


def _stage_bytes(result) -> list[tuple]:
    return [
        (s.name, s.bytes_in, s.bytes_out, s.bytes_shuffled)
        for s in result.metrics.stages
    ]


def test_pool_scan_charge_is_the_sequential_one():
    name = "tpch_q15"
    _, records = _mapper(name)
    steps = _steps(name, get_benchmark(name).make_inputs(RUN_SIZE, 7))
    inline = MultiprocessEngine(processes=0).run_pipeline(records, steps)
    pooled = MultiprocessEngine(processes=2, min_parallel_records=100).run_pipeline(
        records, steps
    )
    assert pooled.map_tasks > 0 and pooled.fallback is None
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
    columns, row_bytes = build_chunk(rows, mapper.columns_spec)
    assert columns["l_suppkey"] is None
    assert columns["l_discount"] is not None
    assert row_bytes == dataset_bytes(rows) == sum(map(sizeof, rows))
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
    # its folded vector segment at any size, and its report names no
    # layout.
    benchmark = get_benchmark("ariths_sum")
    compilation = compiled("ariths_sum")
    fragment = [f for f in compilation.fragments if f.translated][0]
    for size in (20, 5000):
        report = fragment.program.run(
            dict(benchmark.make_inputs(size, 11)), ExecOptions(plan="auto")
        ).plan_report
        summary = report.summary()
        assert "layout" not in summary and "kernel" not in summary
        assert not any(
            d["code"].startswith("REP4")
            and ("layout" in d["message"] or "kernel" in d["message"])
            for d in summary["diagnostics"]
        )
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
    by_cols, report = columns.outputs, columns.plan_report
    assert by_rows == by_cols
    common = set(by_cols) & set(reference)
    assert common and all(by_cols[k] == reference[k] for k in common)
    assert report.columnar is not None and report.columnar["columnar_chunks"] >= 1

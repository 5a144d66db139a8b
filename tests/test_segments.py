"""The vector path's segment pass, pinned against one chunk at a time.

When a segment's sole map stage is vectorized and a recognized
sum/min/max combiner folds it, the engine maps the whole run of chunks
as one segment: columns built end to end, one kernel call, one
segmented ``grouped_fold``.  Every case below runs three ways — as
segments, with the engine handed one chunk per call (the pass it
replaces), and on the reference interpreter — and the outputs, every
counter of the plan report and the columnar accounting must agree byte
for byte.  A call-budget test keeps per-chunk bookkeeping from coming
back.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

import repro
from repro.engine import multiprocess
from repro.engine.multiprocess import _MapOut
from repro.graph.executor import interpret_reference
from repro.options import ExecOptions
from repro.planner.plan import ExecutionPlan
from repro.workloads import get_benchmark

KEYED_SUM = (
    "double[] f(int[] k, double[] v, int n, int m) { double[] r = new double[m];"
    " for (int i = 0; i < n; i++) { r[k[i]] = r[k[i]] + v[i]; } return r; }"
)
FLOAT_SUM = (
    "double f(double[] v, int n) { double t = 0;"
    " for (int i = 0; i < n; i++) { t = t + v[i]; } return t; }"
)
LONG_SUM = (
    "long f(long[] v, int n) { long t = 0;"
    " for (int i = 0; i < n; i++) { t = t + v[i]; } return t; }"
)
INT_SUM = (
    "int f(int[] v, int n) { int t = 0;"
    " for (int i = 0; i < n; i++) { t = t + v[i]; } return t; }"
)
TRIPLED_SUM = (
    "long f(long[] v, int n) { long t = 0;"
    " for (int i = 0; i < n; i++) { t = t + v[i] * 3; } return t; }"
)
KEYED_MIN = (
    "double[] f(int[] k, double[] v, int n, int m) { double[] r = new double[m];"
    " for (int i = 0; i < n; i++) { r[k[i]] = Math.min(r[k[i]], v[i]); } return r; }"
)
FLOAT_MAX = (
    "double f(double[] v, int n) { double t = -1000.0;"
    " for (int i = 0; i < n; i++) { if (v[i] > t) t = v[i]; } return t; }"
)

#: 720 records in the engine's default 72 partitions: chunks of 10.
N = 720
CHUNK = 10

_translated: dict[str, object] = {}


def _translate(source: str):
    if source not in _translated:
        _translated[source] = repro.translate(source)
    return _translated[source]


def _chunked(values: list, chunk: int, fill: list) -> list:
    """``values`` with chunk ``chunk``'s records replaced by ``fill``."""
    out = list(values)
    out[chunk * CHUNK : chunk * CHUNK + len(fill)] = fill
    return out


def _no_walls(value):
    if isinstance(value, dict):
        return {k: _no_walls(v) for k, v in value.items() if k != "wall_seconds"}
    if isinstance(value, list):
        return [_no_walls(v) for v in value]
    return value


def _one_chunk_per_call(monkeypatch) -> None:
    """Hand the resident map phase one chunk per ``_run_map_chunks``
    call, so every segment is one chunk (a budgeted run already is)."""
    original = multiprocess._run_map_chunks

    def per_chunk(map_fns, combiner, chunks, shuffle_next, measure_input, spill=None):
        if spill is not None:
            return original(map_fns, combiner, chunks, shuffle_next, measure_input, spill)
        out = _MapOut(stage_counts=[[0, 0, 0] for _ in map_fns])
        for chunk in chunks:
            out.merge(
                original(map_fns, combiner, [chunk], shuffle_next, measure_input)
            )
        return out

    monkeypatch.setattr(multiprocess, "_run_map_chunks", per_chunk)


def _run(source: str, inputs: dict, options: ExecOptions) -> tuple[str, dict]:
    job = repro.Session(max_workers=0).run(_translate(source), inputs, options)
    assert job.status == "ok", job.error
    return repr(job.outputs), _no_walls(job.plan_report.summary())


def _columnar(summary: dict) -> list:
    return [unit["columnar"] for unit in summary["unit_reports"].values()]


def _three_ways(monkeypatch, source, inputs, options=None, reference=True):
    """Segment run, one-chunk run and the interpreter: outputs and every
    report counter identical.  Returns the segment run's summary."""
    options = options or ExecOptions(plan="sequential")
    outputs, summary = _run(source, inputs, options)
    with monkeypatch.context() as patched:
        _one_chunk_per_call(patched)
        one_outputs, one_summary = _run(source, inputs, options)
    assert outputs == one_outputs
    assert summary == one_summary
    if reference:
        expected = interpret_reference(_translate(source).job_graph, dict(inputs))
        assert outputs == repr(expected)
    return summary


def _floats(pattern: list) -> list:
    return [pattern[i % len(pattern)] for i in range(N)]


def test_float_sums_over_signed_zero_nan_and_infinities(monkeypatch):
    values = _floats([-0.0, 0.5, -0.0, 1e308, 1e308, -1.25, 0.1, -0.0])
    values = _chunked(values, 5, [float("nan")])
    values = _chunked(values, 9, [float("inf")])
    values = _chunked(values, 20, [float("-inf")])
    keys = [(i * 7) % 5 for i in range(N)]
    keyed = _three_ways(
        monkeypatch, KEYED_SUM, {"k": keys, "v": values, "n": N, "m": 5}
    )
    whole = _three_ways(monkeypatch, FLOAT_SUM, {"v": values, "n": N})
    # A non-finite value sends its chunk to the row loop, nothing else.
    for summary in (keyed, whole):
        assert _columnar(summary) == [{"columnar_chunks": 69, "guard_fallbacks": 3}]
    zeros = {"v": [-0.0] * N, "n": N}
    summary = _three_ways(monkeypatch, FLOAT_SUM, zeros)
    assert _columnar(summary) == [{"columnar_chunks": 72, "guard_fallbacks": 0}]


#: Session plans that bind outputs from a fold: in-process, under a
#: budget, and the simulated framework's pricing run.
_ZERO_PLANS = (
    ExecOptions(plan="sequential"),
    ExecOptions(plan="sequential", memory_budget=1 << 14),
    ExecOptions(plan="spark"),
)
#: Records past the engine's 2 048-record floor, so a forced pool engages.
POOLED = 2400


def _pooled(source: str, inputs: dict) -> str:
    """The outputs of a forced two-process pool run of the fragment."""
    program = _translate(source).fragments[0].program.programs[0]
    plan = ExecutionPlan(backend="multiprocess", processes=2)
    ran = program.run(dict(inputs), "multiprocess", plan)
    assert not [
        d.code for d in ran.plan_report.diagnostics if d.code.startswith("REP30")
    ]
    return repr(ran.outputs)


def _every_plan(source: str, inputs: dict, expected: str) -> None:
    for options in _ZERO_PLANS:
        assert _run(source, inputs, options)[0] == expected
    if len(inputs["v"]) >= POOLED:
        assert _pooled(source, inputs) == expected


@pytest.mark.parametrize("n", [1, N, POOLED])
def test_a_float_sum_of_negative_zeros_matches_the_interpreter(n):
    # The fold alone leaves -0.0; the source adds its +0.0 start too.
    inputs = {"v": [-0.0] * n, "n": n}
    expected = repr(interpret_reference(_translate(FLOAT_SUM).job_graph, dict(inputs)))
    assert expected == "{'t': 0.0}"
    _every_plan(FLOAT_SUM, inputs, expected)


@pytest.mark.parametrize("n", [N, POOLED])
def test_a_float_array_sum_of_negative_zeros_matches_the_interpreter(n):
    # Keys 0 and 1 fold -0.0s, key 2 is never written (its start, 0.0),
    # key 3 folds a -0.0 and a 1.5.
    keys = [i % 2 for i in range(n - 2)] + [3, 3]
    values = [-0.0] * (n - 1) + [1.5]
    inputs = {"k": keys, "v": values, "n": n, "m": 4}
    expected = interpret_reference(_translate(KEYED_SUM).job_graph, dict(inputs))
    assert repr(expected) == "{'r': [0.0, 0.0, 0.0, 1.5]}"
    _every_plan(KEYED_SUM, inputs, repr(expected))


CHAINED_SUM = (
    "double f(int[] k, double[] v, int n, int m) { double[] r = new double[m];"
    " for (int i = 0; i < n; i++) { r[k[i]] = r[k[i]] + v[i]; }"
    " double t = 0; for (int j = 0; j < m; j++) { t = t + r[j]; } return t; }"
)


@pytest.mark.parametrize("fuse", [True, False])
def test_a_chained_float_sum_of_negative_zeros_matches_the_interpreter(
    fuse, monkeypatch
):
    # Fused, ``r`` reaches the second loop through a stitch bridge, which
    # binds it from its producer's fold as the tail binds ``t``.
    from repro.codegen import base

    bridged = []
    stitch = base.StitchBridge.__call__

    def call(bridge, pairs):
        bridged.append(bridge.summed)
        return stitch(bridge, pairs)

    monkeypatch.setattr(base.StitchBridge, "__call__", call)
    inputs = {"k": [i % 3 for i in range(N)], "v": [-0.0] * N, "n": N, "m": 3}
    expected = interpret_reference(_translate(CHAINED_SUM).job_graph, dict(inputs))
    assert repr(expected) == "{'r': [0.0, 0.0, 0.0], 't': 0.0}"
    options = ExecOptions(plan="sequential", fuse=fuse, outputs=["r", "t"])
    assert _run(CHAINED_SUM, inputs, options)[0] == repr(expected)
    assert bridged == ([True] if fuse else [])


MAP_SUM = (
    "Map<Integer,Double> f(int[] k, double[] v, int n) {"
    " Map<Integer,Double> m = new HashMap<Integer,Double>();"
    " for (int i = 0; i < n; i++) { m.put(k[i], m.getOrDefault(k[i], 0.0) + v[i]); }"
    " return m; }"
)


def test_a_float_map_sum_of_negative_zeros_matches_the_interpreter():
    # The map's whole binding carries the loop's getOrDefault start, 0.0.
    inputs = {"k": [i % 2 for i in range(N)], "v": [-0.0] * N, "n": N}
    expected = interpret_reference(_translate(MAP_SUM).job_graph, dict(inputs))
    assert repr(expected) == "{'m': {0: 0.0, 1: 0.0}}"
    (binding,) = _translate(MAP_SUM).fragments[0].program.programs[0].summary.outputs
    assert (binding.container, repr(binding.default)) == ("map", "0.0")
    _every_plan(MAP_SUM, inputs, repr(expected))


INT_INTO_DOUBLE = {
    "scalar": (
        "double f(int[] v, int n) { double t = 0;"
        " for (int i = 0; i < n; i++) { t = t + v[i]; } return t; }"
    ),
    "array": (
        "double[] f(int[] k, int[] v, int n, int m) { double[] r = new double[m];"
        " for (int i = 0; i < n; i++) { r[k[i]] = r[k[i]] + v[i]; } return r; }"
    ),
    "map": (
        "Map<Integer,Double> f(int[] k, int[] v, int n) {"
        " Map<Integer,Double> m = new HashMap<Integer,Double>();"
        " for (int i = 0; i < n; i++) {"
        " m.put(k[i], m.getOrDefault(k[i], 0.0) + v[i]); }"
        " return m; }"
    ),
}


@pytest.mark.parametrize("n", [3, N, POOLED])
@pytest.mark.parametrize("shape", sorted(INT_INTO_DOUBLE))
def test_a_double_sum_of_ints_is_a_double(shape, n):
    # The int fold's result is bound through the float start (0.0 + 6),
    # as the source's double accumulator computes it.
    source = INT_INTO_DOUBLE[shape]
    keys, values = [i % 2 for i in range(n)], [i % 7 for i in range(n)]
    inputs = {"k": keys, "v": values, "n": n, "m": 3}
    expected = interpret_reference(_translate(source).job_graph, dict(inputs))
    (numbers,) = expected.values()
    if shape == "scalar":
        numbers = [numbers]
    elif shape == "map":
        numbers = list(numbers.values())
    assert {type(v) for v in numbers} == {float}
    _every_plan(source, inputs, repr(expected))


def test_int_sums_straddling_one_chunks_int64_bound(monkeypatch):
    # 10 × 2**61 could wrap int64 in chunk 3 alone: that chunk folds its
    # Python ints in a dict, the other 71 in one segmented pass.
    values = _chunked([i % 97 - 40 for i in range(N)], 3, [2**61] * CHUNK)
    summary = _three_ways(monkeypatch, LONG_SUM, {"v": values, "n": N})
    assert _columnar(summary) == [{"columnar_chunks": 72, "guard_fallbacks": 0}]
    under = _chunked([i % 97 - 40 for i in range(N)], 3, [2**59] * CHUNK)
    _three_ways(monkeypatch, LONG_SUM, {"v": under, "n": N})


def test_keyed_min_and_max_with_signed_zero(monkeypatch):
    values = _floats([0.0, -0.0, 2.5, -0.0, 0.0, 1.0])
    keys = [(i * 3) % 4 for i in range(N)]
    _three_ways(monkeypatch, KEYED_MIN, {"k": keys, "v": values, "n": N, "m": 4})
    for pattern in ([-0.0, 0.0, -1.0], [0.0, -0.0, -2.0]):
        _three_ways(monkeypatch, FLOAT_MAX, {"v": _floats(pattern), "n": N})


def test_the_one_record_fused_tail(monkeypatch):
    benchmark = get_benchmark("tpch_q15")
    inputs = benchmark.make_inputs(N, 5)
    # Per-chunk partials reassociate the revenue sums (on every plan), so
    # the interpreter agrees to rounding only; the plans agree exactly.
    summary = _three_ways(monkeypatch, benchmark.source, inputs, reference=False)
    # 72 lineitem chunks, then one chunk per supplier in the fused tail.
    assert _columnar(summary) == [{"columnar_chunks": 72 + 50, "guard_fallbacks": 0}]
    job = repro.Session(max_workers=0).run(
        _translate(benchmark.source), inputs, ExecOptions(plan="sequential")
    )
    expected = interpret_reference(_translate(benchmark.source).job_graph, inputs)
    assert job.outputs["best"] == pytest.approx(expected["best"], rel=1e-12)
    assert job.outputs["revenue"] == pytest.approx(expected["revenue"], rel=1e-12)


def test_an_invalid_column_in_one_chunk(monkeypatch):
    values = _chunked([i % 11 for i in range(N)], 4, [1.5])
    summary = _three_ways(monkeypatch, INT_SUM, {"v": values, "n": N})
    assert _columnar(summary) == [{"columnar_chunks": 71, "guard_fallbacks": 1}]


def test_a_guard_trip_in_one_chunk(monkeypatch):
    # 3 × 2**62 could wrap int64: the guarded multiply trips in chunk 7.
    values = _chunked([i % 11 for i in range(N)], 7, [2**62])
    summary = _three_ways(monkeypatch, TRIPLED_SUM, {"v": values, "n": N})
    assert _columnar(summary) == [{"columnar_chunks": 71, "guard_fallbacks": 1}]


def test_a_budgeted_run_spills_as_before(monkeypatch):
    n = 3000
    inputs = {
        "k": [(i * 7) % 40 for i in range(n)],
        "v": [((i * 13) % 101) / 8.0 - 6.0 for i in range(n)],
        "n": n,
        "m": 40,
    }
    options = ExecOptions(plan="sequential", memory_budget=2048)
    summary = _three_ways(monkeypatch, KEYED_SUM, inputs, options)
    (unit,) = summary["unit_reports"].values()
    # Recorded from the chunk-at-a-time engine this pass replaced.
    assert unit["spill_stats"] == {
        "partitions": 72,
        "spill_runs": 510,
        "spilled_pairs": 2858,
        "spilled_bytes": 34296,
        "peak_resident_bytes": 3048,
    }
    assert unit["columnar"] == {"columnar_chunks": 72, "guard_fallbacks": 0}


def test_a_resident_vector_map_phase_makes_few_calls_per_chunk(monkeypatch):
    """A 72-chunk job's map phase: a fixed number of calls plus at most
    three per chunk (the chunk read and its partials' slice).  The
    chunk-at-a-time pass made about 100 per chunk."""
    inputs = {"v": [i % 97 for i in range(5000)], "n": 5000}
    options = ExecOptions(plan="sequential")
    _run(INT_SUM, inputs, options)  # build the kernels outside the profile
    profile = cProfile.Profile()
    original = multiprocess._run_map_chunks

    def profiled(*args, **kwargs):
        profile.enable()
        try:
            return original(*args, **kwargs)
        finally:
            profile.disable()

    monkeypatch.setattr(multiprocess, "_run_map_chunks", profiled)
    _outputs, summary = _run(INT_SUM, inputs, options)
    chunks = _columnar(summary)[0]["columnar_chunks"]
    assert chunks == 72
    calls = pstats.Stats(profile).total_calls
    assert calls <= 3 * chunks + 300, calls


@pytest.mark.parametrize("rows", [1, CHUNK, N])
def test_segment_columns_are_the_chunks_columns(rows):
    """``build_segment`` lays every chunk's columns end to end and prices
    the rows exactly as ``build_chunk`` does chunk by chunk."""
    from repro.engine.columnar import ColumnSpec, build_chunk, build_segment

    spec = ColumnSpec("v", "int", "self")
    records = list(range(rows * 3))
    chunks = [records[i : i + rows] for i in range(0, len(records), rows)]
    columns, nbytes = build_segment(chunks, (spec,))
    pieces = [build_chunk(chunk, (spec,)) for chunk in chunks]
    assert columns["v"].tolist() == records
    assert nbytes == sum(row_bytes for _columns, row_bytes in pieces)
    dirty = build_segment(chunks[:1] + [[1.5]], (spec,))
    assert dirty[0] is None and dirty[1] == pieces[0][1] + 8

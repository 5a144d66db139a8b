"""Compiled batch kernels: differential identity and transport tests.

The acceptance property of the second codegen target
(:mod:`repro.codegen.kernels`): for every translated fragment of every
benchmark suite,

    kernel="compiled" == kernel="eval" == the reference interpreter,

on the real sequential backend — and on the multiprocess pool and the
spill-to-disk path for representative benchmarks.  Alongside that, unit
tests pin the semantics the renderer must preserve exactly (Java
division errors, unbound globals, pickling) and the shared-memory
payload transport's lifecycle.
"""

from __future__ import annotations

import pickle

import pytest

from differential import (
    RUN_SIZE,
    compiled,
    outputs_match as _match,
    sweep,
    translated_fragments as _translated_fragments,
)
from repro import ExecOptions
from repro.codegen.base import prepare_globals, view_records
from repro.codegen.kernels import (
    CompiledRecordMapper,
    CompiledReduce,
    _live_atoms,
    _record_atoms,
    kernel_support,
)
from repro.engine import shm
from repro.engine.multiprocess import MultiprocessEngine
from repro.errors import EngineError, IRError
from repro.graph.executor import interpret_fragment
from repro.ir.eval import eval_expr
from repro.ir.nodes import BinOp, Var
from repro.lang.values import values_equal
from repro.planner.plan import forced_plan
from repro.workloads import all_benchmarks, get_benchmark

# ----------------------------------------------------------------------
# Differential identity: compiled == eval == interpreter, every suite
# (one pass per benchmark, shared with test_layout_sweep)


@pytest.mark.parametrize(
    "name", [b.name for b in all_benchmarks()], ids=lambda n: n
)
def test_compiled_matches_eval_and_interpreter(name):
    for ran in sweep(name):
        assert _match(ran.eval, ran.reference), f"{name}: eval != interpreter"
        assert _match(ran.rows, ran.reference), f"{name}: compiled != interpreter"
        # The two kernels share fold order, so they agree *exactly*,
        # not merely within float tolerance.
        assert ran.eval == ran.rows, f"{name}: compiled != eval"


_BACKEND_CASES = [
    "ariths_sum",            # vectorized numpy path
    "stats_variance_sums",   # multi-emit float fold
    "phoenix_wordcount",     # string keys, count fold
    "fiji_threshold",        # map-only (no reduce stage)
    "tpch_q6",               # conditional emit, struct projection
]


@pytest.mark.parametrize("name", _BACKEND_CASES, ids=lambda n: n)
def test_compiled_on_pool_and_spill_backends(name):
    benchmark = get_benchmark(name)
    compilation = compiled(name)
    inputs = benchmark.make_inputs(RUN_SIZE, 11)

    fragment = _translated_fragments(compilation)[0]
    reference = interpret_fragment(fragment.analysis, dict(inputs))

    pooled = fragment.program.run(
        dict(inputs), ExecOptions(plan="multiprocess", kernel="compiled")
    ).outputs
    assert _match(pooled, reference), f"{name}: pooled compiled != interpreter"

    outcome = fragment.program.run(
        dict(inputs),
        ExecOptions(plan="sequential", memory_budget=4096, kernel="compiled"),
    )
    spilled, report = outcome.outputs, outcome.report
    assert report.plan.spill, f"{name}: budget did not engage the spill path"
    assert _match(spilled, reference), f"{name}: spilled compiled != interpreter"


def test_compiled_through_fused_graph():
    from repro.compiler import run_program
    from repro.graph import interpret_reference

    compilation = compiled("tpch_q1")
    benchmark = get_benchmark("tpch_q1")
    inputs = benchmark.make_inputs(RUN_SIZE, 3)
    reference = interpret_reference(compilation.job_graph, dict(inputs))
    outputs = run_program(
        compilation, dict(inputs), ExecOptions(plan="sequential", kernel="compiled")
    )
    common = set(outputs) & set(reference)
    assert common, "graph run produced nothing comparable"
    assert all(values_equal(outputs[k], reference[k]) for k in common)


def test_pinned_kernel_without_a_plan_rides_a_bare_plan():
    from repro.graph import run_graph
    from repro.planner.plan import pinned_plan

    assert pinned_plan("sequential", ExecOptions()) is None
    bare = pinned_plan("sequential", ExecOptions(kernel="compiled", layout="auto"))
    assert (bare.kernel, bare.layout, bare.spill) == ("compiled", "columns", False)
    # Simulated backends always interpret rows, pinned or not.
    assert pinned_plan("spark", ExecOptions(kernel="compiled")).kernel == "eval"

    compilation = compiled("iterative_pagerank")  # has a stage-fused chain
    inputs = get_benchmark("iterative_pagerank").make_inputs(RUN_SIZE, 3)
    unplanned = run_graph(compilation.job_graph, dict(inputs))
    pinned = run_graph(
        compilation.job_graph,
        dict(inputs),
        ExecOptions(kernel="compiled", layout="auto"),
    )
    assert any(unit.fused for unit in pinned.schedule.units)
    assert pinned.outputs == unplanned.outputs
    assert not pinned.report.unit_reports  # still unplanned: no reports


def test_join_pipelines_fall_back_to_eval():
    compilation = compiled("joins_partsupp_cost")
    benchmark = get_benchmark("joins_partsupp_cost")
    inputs = benchmark.make_inputs(RUN_SIZE, 5)
    fragment = _translated_fragments(compilation)[0]
    program = fragment.program.programs[0]
    reason = kernel_support(program.summary, program.analysis.view)
    assert reason == "join pipelines use the eval kernel"
    # Requesting the compiled kernel is still safe: the join stages
    # fall back per stage and the results are unchanged.
    reference = interpret_fragment(fragment.analysis, dict(inputs))
    outputs = fragment.program.run(
        dict(inputs), ExecOptions(plan="sequential", kernel="compiled")
    ).outputs
    assert _match(outputs, reference)


# ----------------------------------------------------------------------
# Renderer semantics


def _first_map_stage(name: str):
    compilation = compiled(name)
    fragment = _translated_fragments(compilation)[0]
    program = fragment.program.programs[0]
    benchmark = get_benchmark(name)
    inputs = benchmark.make_inputs(RUN_SIZE, 7)
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    stage = program.summary.pipeline.stages[0]
    records = view_records(fragment.analysis.view, inputs)
    return program, stage, globals_env, records


def test_projection_pushdown_prunes_dead_fields():
    program, stage, globals_env, _records = _first_map_stage("tpch_q6")
    view = program.analysis.view
    live = _live_atoms(stage.lam.emits, view)
    dead_fields = {
        f.name for f in view.element_fields if f.name not in live
    }
    assert dead_fields, "tpch_q6 should have unread lineitem fields"
    mapper = CompiledRecordMapper(
        emits=stage.lam.emits, globals_env=globals_env, view=view
    )
    for name in dead_fields:
        assert repr(name) not in mapper.source
    for name in live & _record_atoms(view):
        assert repr(name) in mapper.source or name in view.index_vars


def test_vectorized_path_matches_compiled_loop():
    program, stage, globals_env, records = _first_map_stage("ariths_sum")
    mapper = CompiledRecordMapper(
        emits=stage.lam.emits, globals_env=globals_env, view=program.analysis.view
    )
    assert mapper.vectorized
    vectorized = mapper.map_chunk(records)
    loop_only = pickle.loads(pickle.dumps(mapper))
    loop_only._ensure()
    loop_only._vec = None
    assert vectorized == loop_only.map_chunk(records)
    # A chunk that is not the clean float column the types promised
    # falls back to the loop instead of producing numpy garbage.
    dirty = list(records) + [(len(records), "oops")]
    assert mapper._vec(dirty) is None


def test_division_by_zero_matches_evaluator():
    body = BinOp("/", Var("a"), Var("b"))
    reducer = CompiledReduce(body=body, params=("a", "b"), globals_env={})
    with pytest.raises(IRError) as compiled_err:
        reducer(1, 0)
    with pytest.raises(IRError) as eval_err:
        eval_expr(body, {"a": 1, "b": 0})
    assert str(compiled_err.value) == str(eval_err.value)
    # Truncating Java semantics on the happy path, same as the evaluator.
    assert reducer(-7, 2) == eval_expr(body, {"a": -7, "b": 2}) == -3


def test_unbound_global_matches_evaluator():
    reducer = CompiledReduce(
        body=BinOp("+", Var("a"), Var("missing")),
        params=("a", "b"),
        globals_env={},
    )
    with pytest.raises(IRError, match="unbound IR variable 'missing'"):
        reducer._ensure()


def test_compiled_mappers_pickle_without_code_objects():
    program, stage, globals_env, records = _first_map_stage("phoenix_wordcount")
    mapper = CompiledRecordMapper(
        emits=stage.lam.emits, globals_env=globals_env, view=program.analysis.view
    )
    before = mapper.map_chunk(records)
    assert mapper._fn is not None
    state = mapper.__getstate__()
    assert state["_fn"] is None and state["_rendered"] is None
    clone = pickle.loads(pickle.dumps(mapper))
    assert clone._fn is None  # recompiles lazily on the worker
    assert clone.map_chunk(records) == before


# ----------------------------------------------------------------------
# The kernel knob: plans, planner pricing, validation


def test_forced_plan_carries_kernel():
    plan = forced_plan("sequential", kernel="compiled")
    assert plan.kernel == "compiled"
    assert "kernel=compiled" in plan.describe()
    assert any("kernel" in reason for reason in plan.reasons)
    # Simulated backends always interpret; the knob must not pretend.
    assert forced_plan("spark", kernel="compiled").kernel == "eval"
    # Names are validated once, where the caller spells them.
    with pytest.raises(ValueError, match="unknown kernel"):
        ExecOptions(kernel="fastest")


def test_planner_prices_kernel_from_map_work():
    benchmark = get_benchmark("stats_variance_sums")
    compilation = compiled("stats_variance_sums")
    fragment = _translated_fragments(compilation)[0]

    big = benchmark.make_inputs(5000, 11)
    report = fragment.program.run(dict(big), ExecOptions(plan="auto")).report
    assert report.summary()["kernel"] == "compiled"
    assert any("kernel=compiled" in r for r in report.plan.reasons)

    small = benchmark.make_inputs(20, 11)
    report = fragment.program.run(dict(small), ExecOptions(plan="auto")).report
    assert report.summary()["kernel"] == "eval"
    assert any("compile cost would dominate" in r for r in report.plan.reasons)


# ----------------------------------------------------------------------
# Shared-memory transport


def test_shm_round_trip_and_release():
    payload = b"x" * 100_000
    before = shm.owned_segments()
    ref = shm.write_segment(payload)
    if ref is None:
        pytest.skip("shared memory unavailable on this platform")
    assert shm.owned_segments() == before + 1
    assert shm.read_segment(ref) == payload
    assert shm.resolve_payload(ref) == payload
    assert shm.resolve_payload(b"plain") == b"plain"
    shm.release_segments([ref])
    assert shm.owned_segments() == before
    shm.release_segments([ref])  # idempotent
    assert shm.owned_segments() == before


def test_shm_empty_payload_falls_back():
    assert shm.write_segment(b"") is None


def _pooled_steps(name: str):
    program, _stage, globals_env, records = _first_map_stage(name)
    compiled_plan = forced_plan("sequential", kernel="compiled")
    steps = list(program.local_steps(globals_env, plan=compiled_plan))
    return program, records, steps, globals_env


def test_shm_transport_matches_queue_transport():
    if not shm.SHM_AVAILABLE:
        pytest.skip("shared memory unavailable on this platform")
    program, records, steps, _globals = _pooled_steps("stats_variance_sums")
    config = program.engine_config.with_framework("multiprocess")

    via_shm = MultiprocessEngine(
        config=config, processes=2, transport="shm", shm_min_bytes=0
    ).run_pipeline(records, steps)
    via_queue = MultiprocessEngine(
        config=config, processes=2, transport="queue"
    ).run_pipeline(records, steps)

    assert sorted(via_shm.pairs) == sorted(via_queue.pairs)
    if via_shm.fallback_reason is None:
        assert via_shm.transport == "shm"
        assert via_shm.shm_segments > 0 and via_shm.shm_bytes > 0
        stats = via_shm.transport_stats()
        assert stats["segments"] == via_shm.shm_segments
    assert via_queue.transport_stats() is None
    assert shm.owned_segments() == 0, "driver leaked segments"


def test_shm_creation_failure_counts_fallbacks(monkeypatch):
    import repro.engine.multiprocess as mp_mod

    program, records, steps, _globals = _pooled_steps("stats_variance_sums")
    monkeypatch.setattr(mp_mod, "write_payload", lambda head, buffers: None)
    result = MultiprocessEngine(
        config=program.engine_config.with_framework("multiprocess"),
        processes=2,
        transport="shm",
        shm_min_bytes=0,
    ).run_pipeline(records, steps)
    if result.fallback_reason is None:
        assert result.shm_fallbacks > 0
        assert result.shm_segments == 0


def test_unknown_transport_rejected():
    program, records, steps, _globals = _pooled_steps("ariths_sum")
    engine = MultiprocessEngine(
        config=program.engine_config.with_framework("multiprocess"),
        processes=2,
        transport="teleport",
    )
    with pytest.raises(EngineError, match="unknown transport"):
        engine.run_pipeline(records, steps)

"""Compiled batch kernels: differential identity tests.

The acceptance property of the one production kernel path
(:mod:`repro.codegen.kernels`): for every translated fragment of every
benchmark suite,

    compiled steps == evaluator oracle steps == the reference interpreter,

on the real sequential backend — and on the multiprocess pool and the
spill-to-disk path for representative benchmarks.  Alongside that, unit
tests pin the semantics the renderer must preserve exactly (Java
division errors, unbound globals, pickling), that nothing is left to
choose (no kernel, layout or transport option, one memoized code object
per source, join pipelines on the same kernels, IR the renderer cannot
express refused at plan time).
"""

from __future__ import annotations

import importlib
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    RUN_SIZE,
    compiled,
    outputs_match as _match,
    run_oracle,
    stage_counters,
    sweep,
    translated_fragments as _translated_fragments,
)
from repro import ExecOptions, Session
from repro.codegen import base, kernels
from repro.codegen.base import prepare_globals, view_records
from repro.codegen.joins import (
    BroadcastLookup,
    JoinExpand,
    JoinFold,
    TaggedJoinMapper,
    build_join_steps,
)
from repro.codegen.kernels import (
    CompiledPairMapper,
    CompiledRecordMapper,
    CompiledReduce,
    _live_atoms,
    _record_atoms,
)
from repro.engine.columnar import KeyCount, fold_columns, resolve_columns
from repro.engine.config import EngineConfig
from repro.engine.multiprocess import MapStep, MultiprocessEngine, ReduceStep
from repro.errors import IRError, KernelUnsupported
from repro.graph.executor import interpret_fragment
from repro.ir.eval import eval_expr
from repro.ir.nodes import (
    BinOp,
    CallFn,
    Cond,
    Const,
    Emit,
    JoinStage,
    Proj,
    ReduceStage,
    TupleExpr,
    Var,
)
from repro.lang.values import values_equal
from repro.planner.plan import ExecutionPlan, forced_plan
from repro.workloads import all_benchmarks, get_benchmark

# ----------------------------------------------------------------------
# Differential identity: compiled == oracle == interpreter, every suite
# (one pass per benchmark, shared with test_layout_sweep)


@pytest.mark.parametrize(
    "name", [b.name for b in all_benchmarks()], ids=lambda n: n
)
def test_compiled_matches_eval_and_interpreter(name):
    for ran in sweep(name):
        assert _match(ran.oracle, ran.reference), f"{name}: eval != interpreter"
        assert _match(ran.production, ran.reference), f"{name}: compiled != interpreter"
        # The two step lists share fold order, so they agree *exactly*,
        # not merely within float tolerance.
        assert ran.oracle == ran.production, f"{name}: compiled != eval"


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
        dict(inputs), ExecOptions(plan="multiprocess")
    ).outputs
    assert _match(pooled, reference), f"{name}: pooled compiled != interpreter"

    outcome = fragment.program.run(
        dict(inputs),
        ExecOptions(plan="sequential", memory_budget=4096),
    )
    spilled, report = outcome.outputs, outcome.plan_report
    assert report.plan.spill, f"{name}: budget did not engage the spill path"
    assert _match(spilled, reference), f"{name}: spilled compiled != interpreter"


def test_compiled_through_fused_graph():
    from repro.graph import interpret_reference, run_graph

    compilation = compiled("tpch_q1")
    benchmark = get_benchmark("tpch_q1")
    inputs = benchmark.make_inputs(RUN_SIZE, 3)
    reference = interpret_reference(compilation.job_graph, dict(inputs))
    outputs = run_graph(
        compilation.job_graph, dict(inputs), ExecOptions(plan="sequential")
    ).outputs
    common = set(outputs) & set(reference)
    assert common, "graph run produced nothing comparable"
    assert all(values_equal(outputs[k], reference[k]) for k in common)


_JOINS = ("joins_partsupp_cost", "joins_q3_revenue", "joins_three_way_cost")
#: Join machinery that moves values without evaluating any IR.
_JOIN_PLUMBING = (TaggedJoinMapper, JoinFold, JoinExpand, BroadcastLookup)
_COMPILED = (CompiledRecordMapper, CompiledPairMapper, CompiledReduce)


@pytest.mark.parametrize("name", _JOINS)
def test_join_pipelines_run_compiled_kernels(name):
    fragment = _translated_fragments(compiled(name))[0]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 5)
    ran = fragment.program.run(dict(inputs), ExecOptions(plan="sequential"))
    assert _match(ran.outputs, interpret_fragment(fragment.analysis, dict(inputs)))
    assert not [d for d in ran.plan_report.diagnostics if d.code == "REP308"]
    assert not _names_kernel_or_layout(ran.plan_report)
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    for program in fragment.program.programs:
        stages = program.summary.pipeline.stages
        later = ("broadcast",) * (sum(isinstance(s, JoinStage) for s in stages) - 1)
        for first in ("broadcast", "reduce_side"):
            plan = ExecutionPlan("sequential", join_strategies=(first, *later))
            steps = build_join_steps(program, globals_env, dict(inputs), plan)[1]
            fns = [step.fn for step in steps]
            tagged = [fn for fn in fns if isinstance(fn, TaggedJoinMapper)]
            assert len(tagged) == (first == "reduce_side")
            fns += [side for fn in tagged for side in (fn.left, fn.right)]
            evaluating = [fn for fn in fns if not isinstance(fn, _JOIN_PLUMBING)]
            assert evaluating
            assert all(isinstance(fn, _COMPILED) for fn in evaluating)


def test_join_runs_interpret_no_ir_per_record(monkeypatch):
    # What is left on the evaluator is glue (``bind_outputs``), so the
    # count does not grow with the input.
    calls = []
    real = base.eval_expr
    monkeypatch.setattr(
        base, "eval_expr", lambda e, env: calls.append(e) or real(e, env)
    )
    fragment = _translated_fragments(compiled("joins_q3_revenue"))[0]
    counts = []
    for orders in (300, 3000):
        calls.clear()
        inputs = get_benchmark("joins_q3_revenue").make_inputs(orders, 5)
        fragment.program.run(dict(inputs), ExecOptions(plan="sequential"))
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ----------------------------------------------------------------------
# One path: nothing to choose, a coded event when a stage cannot compile


def _names_kernel_or_layout(report) -> bool:
    summary = report.summary()
    decisions = [d for d in summary["diagnostics"] if d["code"].startswith("REP4")]
    text = " ".join(d["message"] for d in decisions) + " " + report.plan.describe()
    named = {"kernel", "layout"} & set(summary)
    return "kernel" in text or "layout" in text or bool(named)


@pytest.mark.parametrize("size", [50, 5000])
def test_planned_runs_execute_compiled_steps_at_any_size(size):
    # A 5 000-record request is what ``serve_small`` submits; 50 records
    # is below anything the deleted work threshold would have compiled.
    for name, vectorizable in (("phoenix_wordcount", False), ("ariths_sum", True)):
        fragment = _translated_fragments(compiled(name))[0]
        inputs = get_benchmark(name).make_inputs(size, 11)
        ran = fragment.program.run(dict(inputs), ExecOptions(plan="auto"))
        assert _match(ran.outputs, interpret_fragment(fragment.analysis, dict(inputs)))
        assert not [d for d in ran.plan_report.diagnostics if d.code == "REP308"]
        assert not _names_kernel_or_layout(ran.plan_report)
        if vectorizable:
            assert ran.plan_report.summary()["columnar"]["columnar_chunks"] > 0
        program, _stage, globals_env, _records = _first_map_stage(name)
        steps = program.local_steps(globals_env, ran.plan_report.plan)
        assert all(type(step.fn).__name__.startswith("Compiled") for step in steps)


def _with_first_emit(program, **changes):
    """``program`` with its first map stage's first emit changed."""
    first = program.summary.pipeline.stages[0]
    emits = (replace(first.lam.emits[0], **changes), *first.lam.emits[1:])
    stage = replace(first, lam=replace(first.lam, emits=emits))
    pipeline = replace(
        program.summary.pipeline,
        stages=(stage, *program.summary.pipeline.stages[1:]),
    )
    return replace(program, summary=replace(program.summary, pipeline=pipeline))


def test_non_finite_constant_runs_compiled():
    name = "stats_variance_sums"
    fragment = _translated_fragments(compiled(name))[0]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    program = fragment.program.programs[0]
    emit = program.summary.pipeline.stages[0].lam.emits[0]
    # A filter every record passes, spelled with the one constant that
    # has no Python literal.
    passes = BinOp("<", emit.value, Const(float("inf")))
    program = _with_first_emit(program, cond=passes)
    ran = program.run(dict(inputs), "sequential")
    oracle, metrics = run_oracle(program, dict(inputs), forced_plan("sequential"))
    assert ran.outputs == oracle
    assert stage_counters(ran.metrics) == stage_counters(metrics)
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    assert "__const" in program.local_steps(globals_env)[0].fn.source


def test_unmodelled_function_is_refused_at_plan_time():
    name = "stats_variance_sums"
    fragment = _translated_fragments(compiled(name))[0]
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    program = fragment.program.programs[0]
    emit = program.summary.pipeline.stages[0].lam.emits[0]
    program = _with_first_emit(program, value=CallFn("frobnicate", (emit.value,)))
    globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
    with pytest.raises(KernelUnsupported, match="unmodelled IR function 'frobnicate'"):
        program.local_steps(globals_env)
    with pytest.raises(KernelUnsupported):
        program.run(dict(inputs), "sequential")
    # The evaluator rejects the same IR, only later: per record.
    with pytest.raises(IRError, match="unmodelled IR function 'frobnicate'"):
        run_oracle(program, dict(inputs), forced_plan("sequential"))


#: Every field is a knob tests and benchmarks must cover; adding one has
#: to be argued for here.  A literal, so CI's lint job reads the same
#: table (``ast.literal_eval``) and fails when a class outgrows it.
OPTION_SURFACE = {
    "repro.options:ExecOptions": "plan memory_budget fuse strict outputs feedback",
    "repro.engine.multiprocess:MultiprocessEngine": (
        "config processes partitions min_parallel_records memory_budget spill_dir"
    ),
    "repro.cost.monitor:RuntimeMonitor": "implementations",
    "repro.planner.planner:ExecutionPlanner": "unpicklable",
    "repro.codegen.glue:AdaptiveProgram": (
        "analysis programs monitor planner _fragment_key"
    ),
    "repro.synthesis.search:SearchConfig": (
        "incremental_grammar timeout_seconds bounded_config extended_states "
        "exhaustive"
    ),
    "repro.compiler:CasperCompiler": "search_config cache soundness strict",
    "repro.engine.config:EngineConfig": "cluster framework scale",
}


def test_option_surface_is_pinned():
    for target, pinned in OPTION_SURFACE.items():
        module, _, name = target.partition(":")
        cls = getattr(importlib.import_module(module), name)
        assert " ".join(f.name for f in fields(cls)) == pinned, target


def test_import_repro_leaves_shared_memory_unloaded():
    probe = (
        "import sys, repro; "
        "sys.exit('multiprocessing.shared_memory' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_warm_program_builds_kernels_without_builtin_compile(monkeypatch):
    calls = []

    def counting_compile(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(kernels, "compile", counting_compile, raising=False)
    kernels._code_for.cache_clear()
    name = "ariths_sum"  # record kernel + numpy body + reduce kernel
    inputs = get_benchmark(name).make_inputs(RUN_SIZE, 7)
    with Session(max_workers=0) as session:
        program = session.compile(get_benchmark(name).source)
        options = ExecOptions(plan="sequential")
        first = session.submit(program, dict(inputs), options).result()
        cold = len(calls)
        assert cold >= 3 and all(f.startswith("<kernel:") for f in calls)
        second = session.submit(program, dict(inputs), options).result()
    assert first.status == second.status == "ok"
    assert second.outputs == first.outputs
    assert len(calls) == cold, "a warm run compiled kernel source again"


def test_pooled_worker_rebuilds_its_kernel_after_unpickling():
    program, records, steps, _globals = _pooled_steps("stats_variance_sums")
    assert steps[0].fn._fn is not None  # built at plan time, driver-side
    assert pickle.loads(pickle.dumps(steps[0].fn))._fn is None
    engine = MultiprocessEngine(
        config=EngineConfig().with_framework("multiprocess"),
        processes=2,
        min_parallel_records=100,
    )
    pooled = engine.run_pipeline(records, steps)
    inline = MultiprocessEngine(config=engine.config, processes=0)
    assert pooled.pairs == inline.run_pipeline(records, steps).pairs
    if pooled.fallback is None:
        assert pooled.map_tasks > 0


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
    block = mapper.map_block(resolve_columns(records, mapper.columns_spec))
    assert block.pairs() == mapper.map_chunk(records)
    # A chunk that is not the clean column the types promised falls
    # back to the loop instead of producing numpy garbage.
    dirty = list(records) + [(len(records), "oops")]
    assert resolve_columns(dirty, mapper.columns_spec) is None


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
# The keyed row path: column map kernel == row map kernel, fold kernel ==
# the ordered ``__call__`` fold


def _exact(pairs) -> list[tuple[str, str]]:
    """Pairs as text: ``True`` is not ``1``, ``-0.0`` not ``0.0``, NaN
    equals NaN — ``repr`` identity, which ``==`` cannot assert."""
    return [(repr(key), repr(value)) for key, value in pairs]


@lru_cache(maxsize=None)
def _compiled_stages(name: str) -> tuple:
    """Every compiled stage of the benchmark's translated, join-free
    fragments with the rows reaching it (reference outputs chained
    forward, like ``differential.sweep``):
    ``("map", mapper, rows)`` / ``("reduce", reducer, pairs)``."""
    env = dict(get_benchmark(name).make_inputs(RUN_SIZE, 7))
    stages = []
    for fragment in compiled(name).fragments:
        if fragment.analysis is None:
            continue
        if fragment.translated:
            for program in fragment.program.programs:
                if program.has_join:
                    continue
                globals_env, _sizes = prepare_globals(fragment.analysis, env)
                rows = view_records(fragment.analysis.view, env)
                for step in program.local_steps(globals_env):
                    if isinstance(step, MapStep):
                        stages.append(("map", step.fn, rows))
                        rows = step.fn.map_chunk(rows)
                    else:
                        stages.append(("reduce", step.fn, rows))
                        grouped: dict = {}
                        for key, value in rows:
                            fold_columns(step.fn, (key,), (value,), grouped)
                        rows = list(grouped.items())
        env.update(interpret_fragment(fragment.analysis, env))
    return tuple(stages)


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()], ids=lambda n: n)
def test_map_columns_are_the_row_kernels_pairs(name):
    for kind, mapper, rows in _compiled_stages(name):
        if kind != "map":
            continue
        keys, values = mapper.map_columns(rows)
        assert type(keys) is type(values) is list
        assert _exact(zip(keys, values)) == _exact(mapper.map_chunk(rows))


def test_map_columns_cover_every_emit_shape():
    seen = Counter()
    for benchmark in all_benchmarks():
        for kind, mapper, _rows in _compiled_stages(benchmark.name):
            if kind == "map":
                conditional = any(e.cond is not None for e in mapper.emits)
                seen[len(mapper.emits) > 1, conditional] += 1
                seen[type(mapper)] += 1
    # single / multi emit × unconditional / conditional, first and later stages
    assert all(seen[multi, cond] for multi in (False, True) for cond in (False, True))
    assert seen[CompiledRecordMapper] and seen[CompiledPairMapper]


def test_column_kernel_renders_comprehensions_only_for_one_plain_emit():
    plain = (Emit(Var("k"), BinOp("*", Var("v"), Const(2))),)
    guarded = (Emit(Var("k"), Var("v"), BinOp(">", Var("v"), Const(1))),)
    source = kernels.render_pair_kernel(("k", "v"), plain, columns=True).source
    assert "append" not in source and source.count(" for __rec in ") == 2
    for emits in (guarded, plain + guarded):
        source = kernels.render_pair_kernel(("k", "v"), emits, columns=True).source
        assert source.count(" for __rec in ") == 1 and "append" in source
    pairs = [("a", 1), ("b", 2), ("a", 3)]
    mapper = CompiledPairMapper(("k", "v"), plain + guarded, {})
    keys, values = mapper.map_columns(pairs)
    assert (keys, values) == (["a", "b", "b", "a", "a"], [2, 4, 2, 6, 3])
    assert list(zip(keys, values)) == mapper.map_chunk(pairs)
    assert mapper.map_columns([]) == ([], [])


def test_constant_emit_renders_its_value_column_as_one_repeat():
    one = Const(1)
    guard = BinOp(">", Var("v"), Const(1))
    for emits, loop in (
        ((Emit(Var("k"), one),), False),
        ((Emit(Var("k"), one, guard),), True),
    ):
        source = kernels.render_pair_kernel(("k", "v"), emits, columns=True).source
        assert "[1] * len(__keys)" in source and "__value(" not in source
        assert source.count(" for __rec in ") == 1 and ("append" in source) == loop
        mapper = CompiledPairMapper(("k", "v"), emits, {})
        assert mapper.emit_constant == 1
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        keys, values = mapper.map_columns(pairs)
        assert _exact(zip(keys, values)) == _exact(mapper.map_chunk(pairs))
    for value in (Const(True, "boolean"), Const(1.0, "double"), Var("v")):
        emits = (Emit(Var("k"), value),)
        assert CompiledPairMapper(("k", "v"), emits, {}).emit_constant is None
        source = kernels.render_pair_kernel(("k", "v"), emits, columns=True).source
        assert "len(__keys)" not in source
    twice = (Emit(Var("k"), one),) * 2
    assert CompiledPairMapper(("k", "v"), twice, {}).emit_constant is None


_V1, _V2 = Var("v1"), Var("v2")
_PLUS = BinOp("+", _V1, _V2)
_ABOVE_TWO = BinOp(">", Var("v"), Const(2))
#: (emits, λr body, counted): only one int-literal emit (guarded or not)
#: under an int ``+`` λr is counted; every other shape folds.
_COMBINE_SHAPES = {
    "int": ((Emit(Var("k"), Const(1)),), _PLUS, True),
    "int_scaled": ((Emit(Var("k"), Const(-3)),), _PLUS, True),
    "guarded_int": ((Emit(Var("k"), Const(1), _ABOVE_TWO),), _PLUS, True),
    "bool": ((Emit(Var("k"), Const(True, "boolean")),), _PLUS, False),
    "float": ((Emit(Var("k"), Const(1.0, "double")),), _PLUS, False),
    "max": ((Emit(Var("k"), Const(1)),), CallFn("max", (_V1, _V2)), False),
    "two_emits": ((Emit(Var("k"), Const(1)), Emit(Var("v"), Const(1))), _PLUS, False),
    "conditional_value": (
        (Emit(Var("k"), Cond(_ABOVE_TWO, Const(1), Const(0))),),
        _PLUS,
        False,
    ),
}


@pytest.mark.parametrize("shape", sorted(_COMBINE_SHAPES))
def test_map_side_combine_counts_only_an_int_constant_under_sum(shape, monkeypatch):
    from repro.engine import multiprocess

    emits, body, counted = _COMBINE_SHAPES[shape]
    params = (("k", "v"), ("v1", "v2"))
    compiled_steps = [
        MapStep(CompiledPairMapper(params[0], emits, {})),
        ReduceStep(CompiledReduce(body, params[1], {})),
    ]
    oracle_steps = [
        MapStep(base.PairMapper(params[0], emits, {})),
        ReduceStep(base.ReduceApplier(body, params[1], {})),
    ]
    records = [(f"w{(i * 7) % 23}", i % 5) for i in range(3000)]
    calls: Counter = Counter()
    real_add, real_fold = KeyCount.add, CompiledReduce.fold

    def add(self, keys):
        calls["count"] += 1
        return real_add(self, keys)

    def fold(self, keys, values, acc):
        calls["fold"] += 1
        real_fold(self, keys, values, acc)

    monkeypatch.setattr(KeyCount, "add", add)
    monkeypatch.setattr(CompiledReduce, "fold", fold)
    chunks = [records[:1000], records[1000:]]

    def map_task(chunks):
        fns = [compiled_steps[0].fn], compiled_steps[1].fn
        return multiprocess._run_map_chunks(*fns, chunks, True, True)

    out = map_task(chunks)
    # The combine of a counted stage is the C count, never the fold
    # kernel, and the task keeps one counted partial for both chunks.
    assert (calls["count"], calls["fold"]) == ((2, 0) if counted else (0, 2))
    assert len(out.chunk_output) == (1 if counted else 2)
    # Each chunk still reports what its own partial would shuffle.
    alone = [map_task([chunk]) for chunk in chunks]
    for one in alone:
        assert one.outgoing_records == len(one.chunk_output[0][0])
    assert out.outgoing_records == sum(one.outgoing_records for one in alone)
    assert out.shuffled_bytes == sum(one.shuffled_bytes for one in alone)
    for budget in (None, 4096):
        engine = MultiprocessEngine(processes=0, memory_budget=budget)
        production = engine.run_pipeline(records, compiled_steps)
        oracle = engine.run_pipeline(records, oracle_steps)
        assert _exact(production.pairs) == _exact(oracle.pairs)
        assert stage_counters(production.metrics) == stage_counters(oracle.metrics)
    assert (calls["count"] > 2) == counted  # the engine runs counted too


_NAN_A, _NAN_B = float("nan"), float("nan")
#: Keys that collide under dict equality next to keys that do not (two
#: distinct NaN objects among them).
_COLLIDING = [True, 1, 1.0, 0, 0.0, -0.0, False, ("a", 1), ("a", 1.0)]
_DISTINCT = [_NAN_A, _NAN_B, "a", "b", 2, 2.5]
_KEYS = st.sampled_from(_COLLIDING + _DISTINCT)


def _call_fold(reducer, keys, values) -> dict:
    """The ordered per-key left fold, one ``reducer(acc, value)`` per
    pair — what the engine's loops did before the fold kernel."""
    acc: dict = {}
    for key, value in zip(keys, values):
        acc[key] = reducer(acc[key], value) if key in acc else value
    return acc


def _assert_fold_is_the_call_fold(reducer, keys, values):
    try:
        expected = _call_fold(reducer, keys, values)
    except IRError as exc:
        with pytest.raises(IRError) as raised:
            reducer.fold(keys, values, {})
        assert str(raised.value) == str(exc)
        return
    folded: dict = {}
    # Two batches into one accumulator: the fold carries across calls.
    reducer.fold(keys[:3], values[:3], folded)
    reducer.fold(iter(keys[3:]), iter(values[3:]), folded)
    assert _exact(folded.items()) == _exact(expected.items())
    generic: dict = {}
    fold_columns(lambda a, b: reducer(a, b), keys, values, generic)
    assert _exact(generic.items()) == _exact(expected.items())


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()], ids=lambda n: n)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fold_kernel_is_the_ordered_call_fold_on_suite_reducers(name, data):
    for kind, reducer, pairs in _compiled_stages(name):
        if kind != "reduce" or not pairs:
            continue
        # The values this λr really meets, under keys drawn to collide.
        picks = data.draw(
            st.lists(st.tuples(_KEYS, st.sampled_from(range(len(pairs)))), max_size=24)
        )
        keys = [key for key, _index in picks]
        values = [pairs[index][1] for _key, index in picks]
        _assert_fold_is_the_call_fold(reducer, keys, values)


def test_every_suite_reducer_is_covered():
    reducers = {
        str(stage.lam)
        for b in all_benchmarks()
        for f in _translated_fragments(compiled(b.name))
        for program in f.program.programs
        if not program.has_join
        for stage in program.summary.pipeline.stages
        if isinstance(stage, ReduceStage)
    }
    covered = {
        f"λ({r.params[0]}, {r.params[1]}) → {r.body}"
        for b in all_benchmarks()
        for kind, r, pairs in _compiled_stages(b.name)
        if kind == "reduce" and pairs
    }
    assert reducers and covered == reducers


_A, _B = Var("a"), Var("b")


def _scalar_bodies(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "*"]), inner, inner),
            st.builds(
                lambda fn, x, y: CallFn(fn, (x, y)),
                st.sampled_from(["min", "max"]),
                inner,
                inner,
            ),
            st.builds(
                lambda op, x, y, t, o: Cond(BinOp(op, x, y), t, o),
                st.sampled_from(["<", "<=", ">", ">="]),
                inner,
                inner,
                inner,
                inner,
            ),
        ),
        max_leaves=6,
    )


_CONSTS = st.sampled_from([Const(2), Const(0.5), Const(-1)])
_SCALAR_BODIES = _scalar_bodies(st.one_of(st.just(_A), st.just(_B), _CONSTS))
#: Tuple accumulators: each component folds its own projection.
_TUPLE_BODIES = st.builds(
    lambda first, second: TupleExpr((first, second)),
    _scalar_bodies(st.sampled_from([Proj(_A, 0), Proj(_B, 0)])),
    _scalar_bodies(st.sampled_from([Proj(_A, 1), Proj(_B, 1), Proj(_A, 0)])),
)
#: Floats only: a generated ``a * a`` squares per fold step, which
#: floats take to ``inf`` (and ``nan``) and ints to unbounded digits.
_NUMBERS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e200, float("inf")]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), body=st.one_of(_SCALAR_BODIES, _TUPLE_BODIES))
def test_fold_kernel_is_the_ordered_call_fold_on_generated_reducers(data, body):
    reducer = CompiledReduce(body=body, params=("a", "b"), globals_env={})
    value = st.tuples(_NUMBERS, _NUMBERS) if isinstance(body, TupleExpr) else _NUMBERS
    pairs = data.draw(st.lists(st.tuples(_KEYS, value), max_size=24))
    _assert_fold_is_the_call_fold(
        reducer, [key for key, _v in pairs], [v for _key, v in pairs]
    )


def test_fold_kernel_keeps_operand_order_and_seeds_with_the_first_value():
    # a − b is neither commutative nor has an identity: swapped operands
    # or a pre-seeded accumulator both change these numbers.
    minus = CompiledReduce(BinOp("-", _A, _B), ("a", "b"), {})
    acc: dict = {}
    minus.fold(["x", "y", "x", "x"], [10, 7, 3, 2], acc)
    assert acc == {"x": 5, "y": 7} and list(acc) == ["x", "y"]
    keep_first = CompiledReduce(_A, ("a", "b"), {})
    keep_last = CompiledReduce(_B, ("a", "b"), {})
    for reducer, expected in ((keep_first, 10), (keep_last, 2)):
        acc = {}
        reducer.fold(["x", "x", "x"], [10, 3, 2], acc)
        assert acc == {"x": expected}
    # The accumulator is read once into a local only when λr names it twice.
    assert "__a = " not in kernels.render_fold_kernel(minus.body, minus.params).source
    smaller = Cond(BinOp("<", _A, _B), _A, _B)
    assert "__a = __acc[__k]" in kernels.render_fold_kernel(smaller, ("a", "b")).source


def test_fold_kernel_errors_are_the_reduce_kernels_errors():
    plus = CompiledReduce(BinOp("+", _A, _B), ("a", "b"), {})
    with pytest.raises(IRError) as called:
        plus(3, "x")
    with pytest.raises(IRError) as folded:
        plus.fold(["k", "k", "k"], [1, 2, "x"], {})  # the third pair type-errors
    assert str(folded.value) == str(called.value)
    assert str(called.value).startswith("type error in compiled kernel: ")
    divide = CompiledReduce(BinOp("/", _A, _B), ("a", "b"), {})
    with pytest.raises(IRError) as evaluated:
        eval_expr(divide.body, {"a": 4, "b": 0})
    with pytest.raises(IRError) as folded:
        divide.fold(["k", "k"], [4, 0], {})
    assert str(folded.value) == str(evaluated.value)
    unbound = CompiledReduce(BinOp("+", _A, Var("missing")), ("a", "b"), {})
    with pytest.raises(IRError, match="unbound IR variable 'missing'"):
        unbound.fold([], [], {})  # fails at kernel build, before any pair
    mapper = CompiledPairMapper(("k", "v"), (Emit(Var("k"), Var("missing")),), {})
    with pytest.raises(IRError, match="unbound IR variable 'missing'"):
        mapper.map_columns([])


def test_pickled_callables_rebuild_the_column_and_fold_kernels():
    _program, _stage, globals_env, records = _first_map_stage("phoenix_wordcount")
    steps = _pooled_steps("phoenix_wordcount")[2]
    mapper, reducer = steps[0].fn, steps[-1].fn
    columns = mapper.map_columns(records)
    acc: dict = {}
    reducer.fold(*columns, acc)
    assert mapper._columns_fn is not None and reducer._fold_fn is not None
    for fn in (mapper, reducer):
        assert all(
            value is None for name, value in fn.__getstate__().items() if name[0] == "_"
        )
    mapper2, reducer2 = pickle.loads(pickle.dumps((mapper, reducer)))
    assert mapper2._columns_fn is None and reducer2._fold_fn is None
    again: dict = {}
    reducer2.fold(*mapper2.map_columns(records), again)
    assert again == acc == dict(Counter(record for record in records))


@pytest.mark.parametrize("budget", [None, 4096])
def test_pooled_keyed_path_matches_inline(budget):
    program, _stage, globals_env, _records = _first_map_stage("phoenix_wordcount")
    words = [f"w{(i * 7919) % 211}" for i in range(6000)]
    records = view_records(program.analysis.view, {"wordList": words})
    steps = program.local_steps(globals_env)
    config = EngineConfig().with_framework("multiprocess")

    def run(processes):
        return MultiprocessEngine(
            config=config,
            processes=processes,
            min_parallel_records=100,
            memory_budget=budget,
        ).run_pipeline(records, steps)

    pooled, inline = run(2), run(0)
    assert _exact(pooled.pairs) == _exact(inline.pairs)
    assert dict(inline.pairs) == dict(Counter(words))

    def counters(result):
        return [
            (s.name, s.records_in, s.records_out, s.bytes_out, s.bytes_shuffled)
            for s in result.metrics.stages
        ]

    assert counters(pooled) == counters(inline)
    if pooled.fallback is None:
        assert pooled.map_tasks > 0


@pytest.mark.parametrize("budget", [None, 2048])
def test_callables_without_kernels_take_the_generic_fold(budget):
    words = [f"w{i % 17}" for i in range(900)]
    plain = MultiprocessEngine(processes=0, memory_budget=budget).run_pipeline(
        words, [MapStep(lambda w: [(w, 1)]), ReduceStep(lambda a, b: a + b)]
    )
    assert dict(plain.pairs) == dict(Counter(words))
    assert [k for k, _ in plain.pairs] == list(dict.fromkeys(words))


def _pooled_steps(name: str):
    program, _stage, globals_env, records = _first_map_stage(name)
    return program, records, program.local_steps(globals_env), globals_env


def test_unknown_transport_rejected():
    # Pool payloads travel one way (pickled, in band); there is nothing
    # to select and no shared-memory module to import.
    for stray in ({"transport": "queue"}, {"shm_min_bytes": 0}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            MultiprocessEngine(processes=2, **stray)

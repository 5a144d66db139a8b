"""Counted keyed jobs: one partial per map task, pinned against the
per-chunk path.

A last map stage that emits one int literal under an int ``+`` λr is
combined by counting keys.  Into the resident store a map task counts
all of its chunks once (``KeyCount``) and hands the reduce one partial,
where the per-chunk path it replaces built a partial per chunk and
folded them all again after the map.  Every case below runs both ways
— the reference with ``multiprocess.KeyCount`` patched away, which
sends each chunk through ``count_keys`` — on every store and plan, and
the outputs (by ``repr``), the output keys' identity, every plan-report
field and every metric but wall time must agree, and agree with the
reference interpreter.  Call-budget and payload tests keep the per-chunk
partials from coming back.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pickle
import pstats
from operator import is_

import pytest

import repro
from repro.codegen.base import prepare_globals, view_records
from repro.codegen.kernels import CompiledReduce
from repro.engine import columnar, multiprocess
from repro.graph.executor import interpret_reference
from repro.options import ExecOptions
from repro.planner.plan import ExecutionPlan

#: Past the engine's 2 048-record pool floor: 71 chunks, 70 of 34
#: records and one of 20.
N = 2400
CHUNKS = 71

SOURCE = """
Map<{kind}, Integer> count(List<{kind}> xs) {{
  Map<{kind}, Integer> counts = new HashMap<{kind}, Integer>();
  for ({kind} x : xs) {{ counts.put(x, counts.getOrDefault(x, 0) + {literal}); }}
  return counts;
}}
"""

#: 20 emitted keys × 2²⁷ ≥ 2³¹: every chunk is priced from its own count.
BIG = 2**27
CONSTANTS = {1: "1", 3: "3", -2: "(-2)", BIG: str(BIG)}

_NAN = float("nan")
_NANS = [float("nan") for _ in range(3)]


def _spread(base: list, extra: list) -> list:
    """``base`` with ``extra``'s items placed in chunks far apart."""
    out = list(base)
    for slot, item in enumerate(extra):
        out[(slot * 997 + 5) % N] = item
    return out


_FLOATS = [float(i % 50) for i in range(N)]

#: name → (the List's element type, the key column).  Every other "str"
#: key is one word, which repeats 17 times in a full chunk.
KEYS = {
    "str": ("String", [f"w{(i * 7919) % 300}" if i % 2 else "hot" for i in range(N)]),
    "small_ints": ("Integer", [(i * 37) % 500 - 250 for i in range(N)]),
    "ints_across_2_31": (
        "Long",
        [2**31 + (i % 9) - 4 if i % 3 else -(2**31) - (i % 5) for i in range(N)],
    ),
    "mixed_str_int": ("String", [f"w{i % 50}" if i % 3 else i % 70 for i in range(N)]),
    "one_nan_object": ("Double", _spread(_FLOATS, [_NAN] * 3)),
    "three_nan_objects": ("Double", _spread(_FLOATS, _NANS)),
    "signed_zero": (
        "Double",
        [[-0.0, 0.0, 1.5, 0.0, -0.0, 2.5][(i * 5) % 6] for i in range(N)],
    ),
}

_translated: dict[str, object] = {}


def _translate(kind: str, constant: int):
    source = SOURCE.format(kind=kind, literal=CONSTANTS[constant])
    if source not in _translated:
        _translated[source] = repro.translate(source)
    return _translated[source]


def _no_walls(value):
    if isinstance(value, dict):
        return {k: _no_walls(v) for k, v in value.items() if k != "wall_seconds"}
    if isinstance(value, list):
        return [_no_walls(v) for v in value]
    return value


def _program_run(plan: ExecutionPlan):
    def run(result, xs):
        program = result.fragments[0].program.programs[0]
        return program.run({"xs": xs}, plan.backend, plan)

    return run


def _graph_run(result, xs):
    job = repro.Session(max_workers=0).run(result, {"xs": xs}, ExecOptions(plan="sequential"))
    if job.status != "ok":
        raise RuntimeError(job.error)
    return job


#: How a counted job is run: mode → (runner, runs in-process).  The
#: budgeted store counts per chunk either way (its partials go to the
#: writer), and must say it spilled.
MODES = {
    "sequential": (_program_run(ExecutionPlan(backend="sequential")), True),
    "pool": (
        _program_run(ExecutionPlan(backend="multiprocess", processes=2)),
        False,
    ),
    "budget": (
        _program_run(ExecutionPlan(backend="sequential", memory_budget=16 * 1024)),
        True,
    ),
    "graph": (_graph_run, True),
}


def _per_chunk(patched) -> None:
    """The path a counted task replaces: no task count, so each chunk's
    keys go through ``count_keys`` and the reduce folds every partial."""
    patched.setattr(multiprocess, "KeyCount", lambda constant: None)


def _facts(job) -> tuple[str, dict, dict]:
    """Outputs, report and metrics (a graph job's are on its report)."""
    metrics = None if job.metrics is None else dataclasses.asdict(job.metrics)
    return repr(job.outputs), _no_walls(job.plan_report.summary()), _no_walls(metrics)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("constant", sorted(CONSTANTS))
@pytest.mark.parametrize("keys", sorted(KEYS))
def test_a_counted_job_equals_the_per_chunk_path(keys, constant, mode, monkeypatch):
    kind, xs = KEYS[keys]
    result = _translate(kind, constant)
    run, in_process = MODES[mode]
    owned = []
    real_count = columnar.count_keys

    def count_keys(keys, constant):
        owned.append(len(keys))
        return real_count(keys, constant)

    monkeypatch.setattr(columnar, "count_keys", count_keys)
    job = run(result, xs)
    with monkeypatch.context() as patched:
        _per_chunk(patched)
        reference = run(result, xs)
    assert _facts(job) == _facts(reference)
    if mode == "budget":
        assert job.plan_report.spill_stats["spill_runs"] > 0
    if mode == "pool":
        assert job.plan_report.backend_used == "multiprocess"
        assert not [d for d in job.plan_report.diagnostics if d.code.startswith("REP30")]
    if mode in ("sequential", "graph"):
        # A task count prices a chunk from its own count exactly when a
        # count times the constant could reach 2³¹.
        assert len(owned) == (CHUNKS if constant == BIG else 0)
    (counts,) = job.outputs.values()
    if in_process:
        # Each key is the very object the input first showed.
        first_seen = list(dict.fromkeys(xs))
        assert len(counts) == len(first_seen)
        assert all(map(is_, counts, first_seen))
    if mode != "pool" or keys != "one_nan_object":
        # (A pool pickles each task's chunks, so one NaN object reaches
        # each task as its own key — on the per-chunk path too.)
        expected = interpret_reference(result.job_graph, {"xs": xs})
        assert repr(job.outputs) == repr(expected)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_an_unhashable_key_raises_as_the_per_chunk_path(mode, monkeypatch):
    xs = [f"w{i % 40}" for i in range(N)]
    xs[N // 2] = ["not", "hashable"]
    result = _translate("String", 1)
    run, _in_process = MODES[mode]

    def failure():
        with pytest.raises(Exception) as caught:
            run(result, xs)
        return type(caught.value), str(caught.value)

    raised = failure()
    with monkeypatch.context() as patched:
        _per_chunk(patched)
        assert raised == failure()
    assert "unhashable type: 'list'" in raised[1]


def _wordcount_job():
    """A resident, in-process word count: 150 000 words over 10 000
    keys in 72 chunks, as the compiled steps the engine runs."""
    result = _translate("String", 1)
    fragment = result.fragments[0]
    words = [f"w{(i * 7919) % 10_000}" for i in range(150_000)]
    globals_env, _sizes = prepare_globals(fragment.analysis, {"xs": words})
    steps = fragment.program.programs[0].local_steps(globals_env)
    return view_records(fragment.analysis.view, {"xs": words}), steps


def test_the_resident_reduce_folds_one_partial_per_map_task(monkeypatch):
    records, steps = _wordcount_job()
    folds = []
    real_fold = CompiledReduce.fold

    def fold(self, keys, values, acc):
        folds.append(len(keys))
        real_fold(self, keys, values, acc)

    profile = cProfile.Profile()
    real_map = multiprocess._run_map_chunks

    def profiled(*args, **kwargs):
        profile.enable()
        try:
            return real_map(*args, **kwargs)
        finally:
            profile.disable()

    monkeypatch.setattr(CompiledReduce, "fold", fold)
    monkeypatch.setattr(multiprocess, "_run_map_chunks", profiled)
    ran = multiprocess.MultiprocessEngine(processes=0).run_pipeline(records, steps)
    assert len(ran.pairs) == 10_000 and ran.metrics.stages[1].records_in == 150_000
    # One in-process map task: one fold of its 10 000 counted keys, where
    # the per-chunk path folded 72 partials of about 1 900 keys each.
    assert folds == [10_000]
    # The map phase stays within a per-chunk call budget (3 506 calls
    # here, 3 984 on the per-chunk path).
    calls = pstats.Stats(profile).total_calls
    assert calls <= 50 * 72 + 150, calls


def test_a_pooled_counted_task_returns_one_small_partial(monkeypatch):
    records, steps = _wordcount_job()
    map_fns, combiner = [steps[0].fn], steps[1].fn
    chunks = [records[i : i + 2_000] for i in range(0, 36_000, 2_000)]
    task = multiprocess._run_map_chunks(map_fns, combiner, chunks, True, False)
    with monkeypatch.context() as patched:
        _per_chunk(patched)
        per_chunk = multiprocess._run_map_chunks(map_fns, combiner, chunks, True, False)
    assert len(task.chunk_output) == 1 and len(per_chunk.chunk_output) == len(chunks)
    # 18 chunks of 2 000 distinct words: about 99 KB against 357 KB.
    assert len(pickle.dumps(task)) < len(pickle.dumps(per_chunk)) / 3
    for field in ("stage_counts", "outgoing_records", "shuffled_bytes", "chunks"):
        assert getattr(task, field) == getattr(per_chunk, field)
    inline = multiprocess.MultiprocessEngine(processes=0).run_pipeline(records, steps)
    pooled = multiprocess.MultiprocessEngine(processes=2).run_pipeline(records, steps)
    assert pooled.executed_parallel and pooled.map_tasks > 1
    assert pooled.pairs == inline.pairs
    assert [dataclasses.asdict(s) | {"wall_seconds": 0} for s in pooled.metrics.stages] == [
        dataclasses.asdict(s) | {"wall_seconds": 0} for s in inline.metrics.stages
    ]

"""Counted keyed jobs: one partial per map task (per budget window when
the task spills), pinned against the per-chunk path.

A last map stage that emits one int literal under an int ``+`` λr is
combined by counting keys.  A map task counts all of its chunks into one
``KeyCount``: into the resident store it hands the reduce one partial,
and under a budget it hands its spill writer one partial per *window* —
each time the count passed the budget, and at the end — where the
per-chunk path it replaces built a partial per chunk.  Every case below
runs both ways — the reference with ``multiprocess.KeyCount`` patched
away, which folds each chunk's pairs into its own partial — on every
store and plan, and the outputs (by ``repr``), the output keys'
identity, every plan-report field and every metric but wall time must
agree, and agree with the reference interpreter.  Under a budget only
the spill accounting may differ (fewer pairs are spilled): the spill
stats and the reduce stage's spill-I/O seconds, which are checked by
invariants instead.  Call-budget and payload tests keep the per-chunk
partials from coming back.
"""

from __future__ import annotations

import cProfile
import dataclasses
import os
import pickle
import pstats
from operator import is_

import pytest

import repro
from repro.codegen.base import prepare_globals, view_records
from repro.codegen.kernels import CompiledReduce
from repro.engine import columnar, multiprocess
from repro.engine.sizes import dataset_bytes
from repro.engine.spill import SpillWriter
from repro.errors import SpillError
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
#: budgeted store must say it spilled.
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
    pairs are folded into their own partial, and the store takes every
    partial (the resident reduce folds them all, a writer buffers them
    pair by pair)."""
    patched.setattr(multiprocess, "KeyCount", lambda constant, bounded=False: None)


def _facts(job, spilled: bool = False) -> tuple[str, dict, dict]:
    """Outputs, report and metrics (a graph job's are on its report).

    ``spilled`` leaves out what the spill accounting moves: the spill
    stats, and the seconds of every reduce stage (its spill-I/O term)
    and of the whole job."""
    metrics = None if job.metrics is None else dataclasses.asdict(job.metrics)
    summary = _no_walls(job.plan_report.summary())
    if spilled:
        summary.pop("spill_stats")
        metrics.pop("simulated_seconds")
        for stage in metrics["stages"]:
            if stage["name"].startswith("shuffle.reduce"):
                stage.pop("seconds")
    return repr(job.outputs), summary, _no_walls(metrics)


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
    assert _facts(job, mode == "budget") == _facts(reference, mode == "budget")
    if mode == "budget":
        spilled, per_chunk = job.plan_report.spill_stats, reference.plan_report.spill_stats
        assert spilled["spill_runs"] > 0
        assert spilled["spill_runs"] <= per_chunk["spill_runs"]
        assert spilled["spilled_pairs"] <= per_chunk["spilled_pairs"]
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
def test_an_unhashable_key_raises_as_the_per_chunk_path(mode):
    """The chunk's count raises ``count_keys``' own ``TypeError``, as the
    per-chunk count did, on every store and plan."""
    xs = [f"w{i % 40}" for i in range(N)]
    xs[N // 2] = ["not", "hashable"]
    result = _translate("String", 1)
    run, _in_process = MODES[mode]
    with pytest.raises(Exception) as caught:
        run(result, xs)
    with pytest.raises(TypeError) as per_chunk:
        columnar.count_keys(xs[N // 2 - 1 : N // 2 + 1], 1)
    # (The graph runner raises a failed job's error text.)
    assert type(caught.value) is (RuntimeError if mode == "graph" else TypeError)
    assert str(per_chunk.value) in str(caught.value)
    assert "unhashable type: 'list'" in str(caught.value)


#: Budgets a counted task passes mid-task: windows flush between chunks.
BUDGETS = (1024, 4 * 1024, 16 * 1024)


def _job(kind: str, constant: int, xs: list):
    """The compiled steps of a counted job over ``xs``, and its records."""
    fragment = _translate(kind, constant).fragments[0]
    globals_env, _sizes = prepare_globals(fragment.analysis, {"xs": xs})
    steps = fragment.program.programs[0].local_steps(globals_env)
    return view_records(fragment.analysis.view, {"xs": xs}), steps


def _spilled_run(records, steps, budget: int, processes: int, patched):
    """Run under ``budget``; return the result, the flushes an in-process
    run made, the flush files written, and each in-process map task's
    report with, per chunk, its input bytes plus what its own partial
    shuffles (one in-flight chunk's bytes)."""
    flushes, files, tasks, in_flight = [], [], [], []
    real_spill, real_cleanup = SpillWriter.spill, multiprocess.cleanup_runs
    real_map, real_add = multiprocess._run_map_chunks, columnar.KeyCount.add

    def spill(writer):
        if writer.resident_bytes:
            flushes.append(writer.task_id)
        real_spill(writer)

    def cleanup(runs):
        for directory in {os.path.dirname(run.path) for rs in runs for run in rs}:
            files.extend(name for name in os.listdir(directory) if name.endswith(".spill"))
        real_cleanup(runs)

    def add(count, keys):
        records, size = real_add(count, keys)
        in_flight[-1] += size
        return records, size

    def priced(chunks):
        for chunk in chunks:
            in_flight.append(dataset_bytes(chunk))
            yield chunk

    def map_task(map_fns, combiner, chunks, *rest):
        tasks.append(real_map(map_fns, combiner, priced(chunks), *rest))
        return tasks[-1]

    patched.setattr(SpillWriter, "spill", spill)
    patched.setattr(multiprocess, "cleanup_runs", cleanup)
    patched.setattr(multiprocess, "_run_map_chunks", map_task)
    patched.setattr(columnar.KeyCount, "add", add)
    engine = multiprocess.MultiprocessEngine(processes=processes, memory_budget=budget)
    result = engine.run_pipeline(records, steps)
    return result, flushes, files, tasks, in_flight


def _stage_facts(result) -> list:
    """Every stage's counters; a reduce stage's without its seconds."""
    facts = []
    for stage in result.metrics.stages:
        fact = dataclasses.asdict(stage)
        fact.pop("wall_seconds")
        if stage.name.startswith("shuffle.reduce"):
            fact.pop("seconds")
        facts.append(fact)
    return facts


#: (budget, processes): a pool task maps two chunks — at most 68
#: distinct keys, under 4 KiB counted — so only the smallest budget
#: passes it mid-task.
RUNS = [(budget, 0) for budget in BUDGETS] + [(BUDGETS[0], 2)]


@pytest.mark.parametrize("budget, processes", RUNS)
@pytest.mark.parametrize("constant", sorted(CONSTANTS))
@pytest.mark.parametrize("keys", sorted(KEYS))
def test_a_budgeted_count_spills_one_window_per_flush(
    keys, constant, budget, processes, monkeypatch
):
    kind, xs = KEYS[keys]
    records, steps = _job(kind, constant, xs)
    with monkeypatch.context() as patched:
        job, flushes, files, tasks, in_flight = _spilled_run(
            records, steps, budget, processes, patched
        )
    with monkeypatch.context() as patched:
        _per_chunk(patched)
        reference, ref_flushes, ref_files, _tasks, _in_flight = _spilled_run(
            records, steps, budget, processes, patched
        )
    assert (job.processes_used > 1) == (processes > 1) == job.executed_parallel
    # Outputs, key identity and every stage's records and bytes are the
    # per-chunk path's; only the spill accounting moves.
    assert repr(job.pairs) == repr(reference.pairs)
    if not processes:
        # (A pool's keys are unpickled copies on both paths.)
        assert all(map(is_, [k for k, _ in job.pairs], [k for k, _ in reference.pairs]))
    assert _stage_facts(job) == _stage_facts(reference)
    spilled, per_chunk = job.spill_stats, reference.spill_stats
    assert spilled["spill_runs"] > 0
    assert len(files) <= len(ref_files)
    assert spilled["spilled_pairs"] <= per_chunk["spilled_pairs"]
    if processes:
        # Every file written holds runs: one file per flush.
        assert len(files) == len(set(files))
        return
    assert len(files) == len(flushes) and len(ref_files) == len(ref_flushes)
    (task,) = tasks
    assert task.stats.peak_resident_bytes <= budget + max(in_flight)
    whole, counts = columnar.count_keys(xs, constant)
    if dataset_bytes(whole) + dataset_bytes(counts) > budget:
        assert len(flushes) > 1  # a window flushed mid-task


@pytest.mark.parametrize("constant", sorted(CONSTANTS))
@pytest.mark.parametrize("keys", sorted(KEYS))
def test_a_budget_under_one_pair_raises_as_the_per_chunk_path(keys, constant, monkeypatch):
    kind, xs = KEYS[keys]
    records, steps = _job(kind, constant, xs)
    # The smallest pair, two ints, is 8 bytes.
    engine = multiprocess.MultiprocessEngine(processes=0, memory_budget=4)
    with pytest.raises(SpillError) as window:
        engine.run_pipeline(records, steps)
    with monkeypatch.context() as patched:
        _per_chunk(patched)
        with pytest.raises(SpillError) as per_chunk:
            engine.run_pipeline(records, steps)
    assert str(window.value) == str(per_chunk.value)
    assert "smaller than a single record" in str(window.value)


def _wordcount_job():
    """A resident, in-process word count: 150 000 words over 10 000
    keys in 72 chunks, as the compiled steps the engine runs."""
    return _job("String", 1, [f"w{(i * 7919) % 10_000}" for i in range(150_000)])


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

"""Out-of-core execution: dataset sources, spill shuffle, streaming engine."""

from __future__ import annotations

import functools
import json
import os
import pickle

import pytest

from repro.engine.core import partition_data
from repro.engine.multiprocess import (
    BridgeStep,
    MapStep,
    MultiprocessEngine,
    ReduceStep,
)
from repro.engine.source import (
    Dataset,
    GeneratorSource,
    JsonlSource,
    ListSource,
    TextSource,
    as_dataset,
    chunk_records_for,
)
from repro.engine.spill import (
    RunRef,
    SpillWriter,
    _stable_bytes,
    cleanup_runs,
    merge_partition,
    partition_of,
    read_run,
)
from repro.errors import EngineError, SpillError, WorkloadError
from repro.lang.values import Instance
from repro.workloads import datagen


class KeyedEmit:
    """Picklable record → [(key, value)] mapper for tests."""

    def __init__(self, modulo: int = 10):
        self.modulo = modulo

    def __call__(self, record):
        return [(record % self.modulo, record)]


class WordEmit:
    def __call__(self, record):
        return [(record, 1)]


class PassThrough:
    def __call__(self, pair):
        return [pair]


class Add:
    def __call__(self, a, b):
        return a + b


class Subtract:
    """Deliberately non-commutative: fold order must be preserved."""

    def __call__(self, a, b):
        return a - b


class ValuesToRecords:
    """Bridge: one job's result pairs become the next job's records."""

    def __call__(self, pairs):
        return [value for _key, value in pairs]


class AllRecords:
    """Bridge that opens a chain: the raw input records pass through."""

    def __call__(self, records):
        return list(records)


# ----------------------------------------------------------------------
# Dataset sources


class TestSources:
    def test_list_source_chunks_and_length(self):
        source = ListSource(list(range(10)))
        assert source.known_length == 10
        chunks = list(source.iter_chunks(4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert source.materialize() == list(range(10))
        assert source.head(3) == [0, 1, 2]
        assert source.head(100) == list(range(10))

    def test_generator_source_replays_each_pass(self):
        source = GeneratorSource(lambda: iter(range(7)), length=7)
        assert list(source) == list(range(7))
        assert list(source) == list(range(7))  # second pass identical
        assert source.known_length == 7
        assert GeneratorSource(lambda: iter(())).known_length is None

    def test_jsonl_source_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [{"k": i, "v": f"r{i}"} for i in range(5)]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        source = JsonlSource(str(path))
        assert source.materialize() == records
        assert [len(c) for c in source.iter_chunks(2)] == [2, 2, 1]

    def test_jsonl_source_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json at all{\n')
        with pytest.raises(EngineError, match="invalid JSONL"):
            JsonlSource(str(path)).materialize()

    def test_text_source_lines(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("alpha\nbeta\n\ngamma\n")
        assert TextSource(str(path)).materialize() == ["alpha", "beta", "gamma"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(EngineError, match="does not exist"):
            TextSource(str(tmp_path / "nope.txt")).materialize()

    def test_as_dataset_coercion(self):
        assert isinstance(as_dataset([1, 2]), ListSource)
        source = ListSource([1])
        assert as_dataset(source) is source
        with pytest.raises(EngineError, match="cannot stream"):
            as_dataset({"a": 1})

    def test_chunk_layout_matches_partition_data(self):
        # The streaming chunk layout must reproduce the in-memory block
        # partitioning exactly — that is what keeps per-chunk combining
        # (and therefore results) byte-identical between the two paths.
        for n in (0, 1, 5, 72, 73, 1000):
            records = list(range(n))
            source = ListSource(records)
            size = chunk_records_for(source, 72)
            streamed = list(source.iter_chunks(size))
            expected = partition_data(records, 72)
            if n == 0:
                assert streamed == []  # partition_data pads to [[]]
            else:
                assert streamed == expected

    def test_estimated_bytes(self):
        assert ListSource([1] * 100).estimated_bytes() == 400  # 4 B ints
        assert GeneratorSource(lambda: iter(())).estimated_bytes() is None
        assert ListSource([]).estimated_bytes() == 0

    def test_chunk_size_capped_by_budget_on_huge_inputs(self):
        # Without the cap, a known-length input of n records yields
        # ceil(n/partitions)-record chunks — O(n) resident memory, which
        # defeats the out-of-core guarantee on inputs that dwarf the
        # budget.  One chunk must always fit the budget.
        n = 10_000_000
        huge = GeneratorSource(lambda: iter(range(n)), length=n)
        capped = chunk_records_for(huge, 72, budget_bytes=65_536)
        assert capped * 4 <= 65_536  # 4 B per int record
        # The cap must NOT engage while the partition-matched chunk is
        # within 2× the budget: identity with the in-memory engines
        # (float folds included) depends on that layout, and residency
        # stays inside the documented ~2×-budget envelope.
        small = ListSource(list(range(5000)))
        assert chunk_records_for(small, 72, budget_bytes=65_536) == (
            chunk_records_for(small, 72)
        )
        near = ListSource(list(range(7200)))  # 100-record chunks, 400 B
        assert chunk_records_for(near, 72, budget_bytes=256) == 100


# ----------------------------------------------------------------------
# Spill primitives


class TestSpillPrimitives:
    def test_partition_of_is_stable_and_in_range(self):
        keys = [
            0,
            17,
            -3,
            2.5,
            True,
            "word",
            ("a", 1),
            None,
            Instance("Pixel", {"r": 1, "g": 2, "b": 3}),
        ]
        for key in keys:
            first = partition_of(key, 72)
            assert 0 <= first < 72
            assert partition_of(key, 72) == first  # deterministic

    def test_writer_spills_on_budget_and_merge_restores_order(self, tmp_path):
        writer = SpillWriter(str(tmp_path), partitions=4, budget_bytes=64)
        for i in range(100):
            writer.add(i % 8, i)
        writer.finish()
        assert writer.stats.spill_runs > 0
        assert writer.stats.spilled_pairs == 100
        assert writer.stats.peak_resident_bytes <= 64 + 8
        # The merge folds by writer rank; the writer names each rank's key.
        merged = {}
        for partition in range(4):
            for rank, value in merge_partition(
                writer.run_files[partition], lambda a, b: a - b
            ):
                merged[writer.key_order[rank]] = value
        expected = {}
        for i in range(100):
            key = i % 8
            expected[key] = expected[key] - i if key in expected else i
        assert merged == expected

    def test_budget_smaller_than_one_record_raises(self, tmp_path):
        writer = SpillWriter(str(tmp_path), partitions=2, budget_bytes=6)
        with pytest.raises(SpillError, match="smaller than a single record"):
            writer.add(1, 2)  # an int pair is 8 estimated bytes

    def test_corrupt_run_file_raises_typed_error(self, tmp_path):
        writer = SpillWriter(str(tmp_path), partitions=1, budget_bytes=1024)
        for i in range(10):
            writer.add(i % 2, i)
        writer.finish()
        victim = writer.run_files[0][0]
        with open(victim, "wb") as handle:
            handle.write(b"\x80\x05garbage that is not a pickle")
        with pytest.raises(SpillError, match="corrupt spill run"):
            merge_partition(writer.run_files[0], lambda a, b: a + b)

    def test_nan_keys_group_by_writer_rank_across_flushes(self, tmp_path):
        """An unpickled NaN is a new object equal to nothing; the merge
        groups it by the rank the writer gave it, never by lookup."""
        nan, other_nan = float("nan"), float("nan")
        writer = SpillWriter(str(tmp_path), partitions=3, budget_bytes=64)
        for i in range(30):
            writer.add(nan if i % 3 else other_nan, 1)
        writer.finish()
        assert writer.stats.spill_runs > 2
        (partition,) = [p for p, runs in enumerate(writer.run_files) if runs]
        merged = merge_partition(writer.run_files[partition], lambda a, b: a + b)
        assert merged == [(0, 10), (1, 20)]
        assert writer.key_order[0] is other_nan and writer.key_order[1] is nan

    def test_unwritable_spill_dir_raises(self, tmp_path):
        # A spill dir that vanished (or never existed) must surface as
        # the typed error from the write itself, not partial results.
        writer = SpillWriter(
            str(tmp_path / "missing"), partitions=1, budget_bytes=16
        )
        with pytest.raises(SpillError, match="cannot write spill run"):
            for i in range(100):
                writer.add(i, i)


# ----------------------------------------------------------------------
# NaN keys: equal to nothing, so grouped by rank, never looked up

NAN_COUNT = """
Map<Double, Integer> count(List<Double> xs) {
  Map<Double, Integer> counts = new HashMap<Double, Integer>();
  for (Double x : xs) { counts.put(x, counts.getOrDefault(x, 0) + 1); }
  return counts;
}
"""

_NAN = float("nan")

_NUMBERS = [float(i % 50) for i in range(3000)]

#: One NaN object thrice (one dict group), and three distinct NaNs.
NAN_INPUTS = {
    "same_object": _NUMBERS + [_NAN] * 3,
    "distinct_objects": _NUMBERS + [float("nan") for _ in range(3)],
}


class TestNanKeys:
    @pytest.mark.parametrize("shape", sorted(NAN_INPUTS))
    @pytest.mark.parametrize("processes", [0, 2])
    def test_engine_spill_equals_resident(self, shape, processes):
        records = NAN_INPUTS[shape]
        steps = [MapStep(WordEmit()), ReduceStep(Add())]

        def run(budget):
            return MultiprocessEngine(
                processes=processes, memory_budget=budget, min_parallel_records=100
            ).run_pipeline(list(records), steps)

        resident, spilled_run = run(None), run(4096)
        assert spilled_run.spill_stats["spill_runs"] > 0
        if processes == 0:
            # The spilled keys are the very key objects the job emitted.
            assert spilled_run.pairs == resident.pairs
        # A pool pickles records, so every NaN reaches it as its own key;
        # the spilled store must split them exactly as the resident one.
        assert repr(spilled_run.pairs) == repr(resident.pairs)

    @pytest.mark.parametrize("shape", sorted(NAN_INPUTS))
    @pytest.mark.parametrize(
        "plan", ["sequential", "multiprocess", "spark", "hadoop", "flink", "auto"]
    )
    def test_program_spill_equals_resident_on_every_plan(self, shape, plan):
        from repro import ExecOptions, Session, translate

        program = translate(NAN_COUNT)
        inputs = {"xs": NAN_INPUTS[shape]}
        with Session(max_workers=0) as session:
            resident = session.run(program, dict(inputs), ExecOptions(plan=plan))
            budgeted = session.run(
                program, dict(inputs), ExecOptions(plan=plan, memory_budget=4096)
            )
        assert resident.status == budgeted.status == "ok", budgeted.error
        assert repr(budgeted.outputs) == repr(resident.outputs)
        if plan != "multiprocess":
            assert budgeted.outputs == resident.outputs


# ----------------------------------------------------------------------
# One file per flush: layout and faults


def _flushed_writer(spill_dir, partitions=4, budget=96, pairs=60):
    os.makedirs(spill_dir, exist_ok=True)
    writer = SpillWriter(spill_dir, partitions=partitions, budget_bytes=budget)
    for i in range(pairs):
        writer.add(f"k{i % 11}", i)
    writer.finish()
    return writer


class TestFlushFiles:
    def test_one_file_per_flush_each_run_at_its_own_offset(self, tmp_path):
        writer = _flushed_writer(str(tmp_path / "runs"))
        runs = [run for runs in writer.run_files for run in runs]
        files = sorted(os.listdir(tmp_path / "runs"))
        flushes = sorted({run.path for run in runs})
        assert [os.path.basename(path) for path in flushes] == files
        assert 1 < len(files) < len(runs) == writer.stats.spill_runs
        for path in flushes:
            spans = sorted(
                (run.offset, run.offset + run.length + run.key_length)
                for run in runs
                if run.path == path
            )
            # A flush file is its runs back to back, nothing else.
            assert spans[0][0] == 0
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert spans[-1][1] == os.path.getsize(path)
        # Every run is path-like and reads back as its partition's pairs.
        for partition, partition_runs in enumerate(writer.run_files):
            for run in partition_runs:
                assert isinstance(run, os.PathLike) and os.fspath(run) == run.path
                pairs = read_run(run)
                assert pairs and all(
                    partition_of(key, 4) == partition for key, _value in pairs
                )
        assert sum(len(read_run(run)) for run in runs) == 60

    @staticmethod
    def _victim(writer):
        """A run that is neither first nor last in its flush file."""
        for path in sorted({run.path for runs in writer.run_files for run in runs}):
            in_file = sorted(
                (run for runs in writer.run_files for run in runs if run.path == path),
                key=lambda run: run.offset,
            )
            if len(in_file) >= 3:
                run = in_file[1]
                partition = next(
                    p for p, runs in enumerate(writer.run_files) if run in runs
                )
                return partition, run
        raise AssertionError("no flush file holds three runs")

    @staticmethod
    def _truncate_inside(run):
        with open(run.path, "r+b") as handle:
            handle.truncate(run.offset + run.length // 2)

    @staticmethod
    def _garbage_at_offset(run):
        with open(run.path, "r+b") as handle:
            handle.seek(run.offset)
            handle.write(b"\x80\x05garbage" + b"\xff" * 8)

    @staticmethod
    def _truncate_before(run):
        # The run now starts past the end of its file.
        with open(run.path, "r+b") as handle:
            handle.truncate(run.offset - 1)

    @pytest.mark.parametrize(
        "damage", ["_truncate_inside", "_garbage_at_offset", "_truncate_before"]
    )
    def test_damaged_run_raises_and_cleanup_leaves_nothing(self, tmp_path, damage):
        spill_dir = str(tmp_path / "runs")
        writer = _flushed_writer(spill_dir)
        partition, victim = self._victim(writer)
        getattr(self, damage)(victim)
        with pytest.raises(SpillError, match="corrupt spill run"):
            merge_partition(writer.run_files[partition], lambda a, b: a + b)
        with pytest.raises(SpillError, match="corrupt spill run"):
            read_run(victim)
        cleanup_runs(writer.run_files)
        assert os.listdir(spill_dir) == []

    def test_offset_past_eof_raises(self, tmp_path):
        writer = _flushed_writer(str(tmp_path / "runs"))
        run = writer.run_files[0][0]
        lost = run._replace(offset=os.path.getsize(run.path) + 10)
        with pytest.raises(SpillError, match="read 0 of"):
            merge_partition([lost], lambda a, b: a + b)

    def test_runs_of_several_writers_need_rank_tables(self, tmp_path):
        first = _flushed_writer(str(tmp_path / "a"))
        second = SpillWriter(str(tmp_path / "a"), 4, 96, task_id=1)
        for i in range(20):
            second.add(f"k{i % 11}", i)
        second.finish()
        runs = first.run_files[0] + second.run_files[0]
        with pytest.raises(ValueError, match="rank tables"):
            merge_partition(runs, lambda a, b: a + b)

    def test_damaged_run_mid_job_fails_typed_and_sweeps_the_job_dir(
        self, tmp_path, monkeypatch
    ):
        """Fault injection on the engine: a flush file truncated after
        the map phase wrote it ends the job in ``SpillError``, and the
        per-job run directory is still removed."""
        original = SpillWriter.finish

        def finish_then_truncate(writer):
            original(writer)
            _partition, victim = self._victim(writer)
            self._truncate_inside(victim)

        monkeypatch.setattr(SpillWriter, "finish", finish_then_truncate)
        engine = MultiprocessEngine(
            processes=0, memory_budget=512, spill_dir=str(tmp_path / "runs")
        )
        with pytest.raises(SpillError, match="corrupt spill run"):
            engine.run_pipeline(
                list(range(3000)), [MapStep(KeyedEmit(40)), ReduceStep(Add())]
            )
        assert os.listdir(tmp_path / "runs") == []


def _run_file(path, *payloads, task=0):
    """A flush file holding ``payloads`` pickled back to back, and the
    RunRef of a run whose columns are the first and keys the second."""
    blobs = [pickle.dumps(payload) for payload in payloads]
    with open(path, "wb") as handle:
        handle.write(b"".join(blobs))
    key_length = len(blobs[1]) if len(blobs) > 1 else 0
    return RunRef(str(path), 0, len(blobs[0]), key_length, 0, task)


class TestSpillFaults:
    """Every typed refusal of the spill layer, one damage each."""

    def test_non_positive_budget_is_refused(self, tmp_path):
        with pytest.raises(SpillError, match="must be positive, got 0"):
            SpillWriter(str(tmp_path), partitions=1, budget_bytes=0)

    def test_missing_run_file_is_a_corrupt_run(self, tmp_path):
        run = RunRef(str(tmp_path / "gone"), 0, 8, 0, 0, 0)
        with pytest.raises(SpillError, match="corrupt spill run .*No such file"):
            read_run(run)

    @pytest.mark.parametrize(
        "columns", [([1], [0], [2]), [[1], [0]], ([1, 2], [0]), ("1", [0])]
    )
    def test_misshapen_value_columns_are_refused(self, tmp_path, columns):
        run = _run_file(tmp_path / "run", columns, [1])
        with pytest.raises(SpillError, match="expected value and rank columns"):
            merge_partition([run], lambda a, b: a + b)

    @pytest.mark.parametrize("keys", [("k",), ["k", "j"]])
    def test_misshapen_key_column_is_refused(self, tmp_path, keys):
        run = _run_file(tmp_path / "run", ([1], [0]), keys)
        with pytest.raises(SpillError, match="expected a key column"):
            read_run(run)

    def test_rank_outside_the_writers_table_is_refused(self, tmp_path):
        run = _run_file(tmp_path / "run", ([1, 2], [0, 5]), ["a", "b"], task=3)
        with pytest.raises(SpillError, match="rank .* outside its writer's table"):
            merge_partition([run], lambda a, b: a + b, ranks={3: {0: 0}})
        with pytest.raises(SpillError, match="outside its writer's table"):
            merge_partition([run], lambda a, b: a + b, ranks={})

    def test_cleanup_ignores_a_run_file_already_gone(self, tmp_path):
        gone = RunRef(str(tmp_path / "gone"), 0, 1, 0, 0, 0)
        cleanup_runs([[gone, gone]])  # no OSError escapes

    @pytest.mark.parametrize(
        "key, encoded",
        [
            (float("inf"), b"n:inf"),
            (float("-inf"), b"n:-inf"),
            (2.0, b"n:2"),
            (frozenset(), b"frozenset()"),
        ],
    )
    def test_canonical_bytes_of_infinite_integral_and_other_keys(self, key, encoded):
        assert _stable_bytes(key) == encoded


# ----------------------------------------------------------------------
# Streaming engine: identity with the in-memory path


def in_memory(records, steps):
    return MultiprocessEngine(processes=0).run_pipeline(records, steps)


def spilled(records, steps, budget=2048, **kwargs):
    engine = MultiprocessEngine(processes=0, memory_budget=budget, **kwargs)
    return engine.run_pipeline(records, steps)


#: One executor, two shuffle stores: every pipeline shape must come out
#: the same whatever the budget, the pool or the source type.
IDENTITY_PIPELINES = {
    "map_reduce": [MapStep(KeyedEmit(13)), ReduceStep(Add())],
    "no_combine": [MapStep(KeyedEmit(5)), ReduceStep(Subtract(), combine=False)],
    "map_only": [MapStep(KeyedEmit(7)), MapStep(PassThrough())],
    "bridge_mid": [
        MapStep(KeyedEmit(13)),
        ReduceStep(Add()),
        BridgeStep(ValuesToRecords()),
        MapStep(KeyedEmit(3)),
        ReduceStep(Add()),
    ],
    "bridge_first": [
        BridgeStep(AllRecords()),
        MapStep(KeyedEmit(11)),
        ReduceStep(Add()),
    ],
    "two_segments": [
        MapStep(KeyedEmit(13)),
        ReduceStep(Add()),
        MapStep(PassThrough()),
        ReduceStep(Subtract(), combine=False),
    ],
}
#: Below one probe chunk, so an unknown-length source under a budget is
#: measured exactly and keeps the partition-matched chunk layout.
IDENTITY_RECORDS = 3000
IDENTITY_SOURCES = {
    "list": lambda: list(range(IDENTITY_RECORDS)),
    "known": lambda: GeneratorSource(
        lambda: iter(range(IDENTITY_RECORDS)), length=IDENTITY_RECORDS
    ),
    "unknown": lambda: GeneratorSource(lambda: iter(range(IDENTITY_RECORDS))),
}


@functools.lru_cache(maxsize=None)
def _identity_reference(pipeline):
    return in_memory(IDENTITY_SOURCES["list"](), IDENTITY_PIPELINES[pipeline])


def _stage_counters(result):
    return [
        (
            stage.name,
            stage.records_in,
            stage.records_out,
            stage.bytes_in,
            stage.bytes_out,
            stage.bytes_shuffled,
        )
        for stage in result.metrics.stages
    ]


class TestStreamingIdentity:
    @pytest.mark.parametrize("source", sorted(IDENTITY_SOURCES))
    @pytest.mark.parametrize("processes", [0, 2])
    @pytest.mark.parametrize("budget", [None, 2048, 1 << 30])
    @pytest.mark.parametrize("pipeline", sorted(IDENTITY_PIPELINES))
    def test_identity_matrix(self, pipeline, budget, processes, source):
        steps = IDENTITY_PIPELINES[pipeline]
        base = _identity_reference(pipeline)
        engine = MultiprocessEngine(
            processes=processes, memory_budget=budget, min_parallel_records=100
        )
        result = engine.run_pipeline(IDENTITY_SOURCES[source](), steps)
        assert result.pairs == base.pairs
        assert _stage_counters(result) == _stage_counters(base)
        # The budget's only cost-model footprint: spilled runs pay one
        # extra local write + read-back, charged to their reduce stage.
        cluster = engine.config.cluster
        spilled_bytes = 0
        for stage, ref in zip(result.metrics.stages, base.metrics.stages):
            if not stage.name.startswith("shuffle.reduce"):
                continue
            term = 0.0
            if budget is not None:
                spilled_bytes += stage.bytes_shuffled
                term = (
                    2
                    * stage.bytes_shuffled
                    * engine.config.scale
                    / (cluster.worker_disk_bw * cluster.workers)
                )
            assert stage.seconds == ref.seconds + term
        if budget is None:
            assert result.spill_stats is None
        else:
            assert result.spill_stats["spilled_bytes"] == spilled_bytes
        # A pool that opened is a pool that mapped — map-only segments
        # under a budget included.
        if processes:
            assert result.fallback is None
        if result.executed_parallel:
            assert result.map_tasks > 0

    @pytest.mark.parametrize("budget", [None, 2048])
    def test_bridge_opening_reads_the_borrowed_list_untouched(self, budget):
        # A chain opening with a bridge is handed the caller's list
        # itself (``ListSource.materialize``); nothing may write it.
        records = IDENTITY_SOURCES["list"]()
        elements = list(records)
        handed = []

        def bridge(pairs):
            handed.append(pairs)
            return AllRecords()(pairs)

        steps = [BridgeStep(bridge), *IDENTITY_PIPELINES["bridge_first"][1:]]
        engine = MultiprocessEngine(processes=0, memory_budget=budget)
        result = engine.run_pipeline(records, steps)
        assert result.pairs == _identity_reference("bridge_first").pairs
        assert len(handed) == 1 and handed[0] is records
        assert len(records) == len(elements)
        assert all(a is b for a, b in zip(records, elements))

    def test_map_reduce_identical_and_spills(self):
        records = list(range(5000))
        steps = [MapStep(KeyedEmit(13)), ReduceStep(Add())]
        base = in_memory(records, steps)
        spill = spilled(records, steps, budget=1024)
        assert spill.pairs == base.pairs
        assert spill.spill_stats["spill_runs"] > 0

    def test_non_commutative_no_combine_identical(self):
        records = list(range(4000))
        steps = [MapStep(KeyedEmit(5)), ReduceStep(Subtract(), combine=False)]
        assert spilled(records, steps).pairs == in_memory(records, steps).pairs

    def test_chained_maps_and_map_only_identical(self):
        records = list(range(3000))
        chain = [MapStep(KeyedEmit(7)), MapStep(PassThrough())]
        assert spilled(records, chain).pairs == in_memory(records, chain).pairs

    def test_bridge_step_identical(self):
        records = list(range(5000))
        steps = [
            MapStep(KeyedEmit(13)),
            ReduceStep(Add()),
            BridgeStep(ValuesToRecords()),
            MapStep(KeyedEmit(3)),
            ReduceStep(Add()),
        ]
        assert spilled(records, steps).pairs == in_memory(records, steps).pairs

    def test_generator_source_identical(self):
        steps = [MapStep(KeyedEmit(11)), ReduceStep(Add())]
        base = in_memory(list(range(4000)), steps)
        unknown = GeneratorSource(lambda: iter(range(4000)))
        assert spilled(unknown, steps).pairs == base.pairs
        known = GeneratorSource(lambda: iter(range(4000)), length=4000)
        assert spilled(known, steps).pairs == base.pairs

    def test_dataset_without_budget_materializes(self):
        steps = [MapStep(KeyedEmit(9)), ReduceStep(Add())]
        base = in_memory(list(range(2000)), steps)
        streamed = MultiprocessEngine(processes=0).run_pipeline(
            GeneratorSource(lambda: iter(range(2000))), steps
        )
        assert streamed.pairs == base.pairs
        assert streamed.spill_stats is None

    def test_empty_input(self):
        steps = [MapStep(KeyedEmit()), ReduceStep(Add())]
        assert spilled([], steps).pairs == []

    def test_pooled_spill_identical(self):
        records = list(range(6000))
        steps = [MapStep(KeyedEmit(13)), ReduceStep(Add())]
        base = in_memory(records, steps)
        pooled = MultiprocessEngine(
            processes=2, memory_budget=2048, min_parallel_records=100
        ).run_pipeline(records, steps)
        assert pooled.pairs == base.pairs
        assert pooled.fallback is None
        assert pooled.map_tasks > 0

    def test_pooled_spill_key_order_equals_sequential(self):
        """Several pooled map tasks each rank their own keys; the job's
        first-seen order (merged per task, in chunk order) must be the
        sequential job's, pair for pair."""
        records = [f"w{(i * 7919) % 997}" for i in range(12_000)]
        steps = [MapStep(WordEmit()), ReduceStep(Add())]
        sequential = spilled(records, steps, budget=4096)
        pooled = MultiprocessEngine(
            processes=2, memory_budget=4096, min_parallel_records=100
        ).run_pipeline(records, steps)
        assert pooled.map_tasks > 1 and pooled.fallback is None
        assert [key for key, _ in pooled.pairs] == [key for key, _ in sequential.pairs]
        assert pooled.pairs == sequential.pairs == in_memory(records, steps).pairs

    def test_pooled_spill_worker_exception_propagates(self):
        class Boom:
            def __call__(self, record):
                raise ValueError("boom in spill worker")

        engine = MultiprocessEngine(
            processes=2, memory_budget=2048, min_parallel_records=100
        )
        with pytest.raises(ValueError, match="boom in spill worker"):
            engine.run_pipeline(
                list(range(6000)), [MapStep(Boom()), ReduceStep(Add())]
            )

    def test_peak_resident_bounded_for_10x_budget(self):
        budget = 4096
        records = list(range(12_000))  # ~48 KB of int records ≈ 12× budget
        steps = [MapStep(KeyedEmit(16)), ReduceStep(Add())]
        result = spilled(records, steps, budget=budget)
        assert result.pairs == in_memory(records, steps).pairs
        assert result.spill_stats["spilled_bytes"] > budget
        assert result.spill_stats["peak_resident_bytes"] <= 2 * budget

    def test_spill_cleans_its_temp_runs(self, tmp_path):
        engine = MultiprocessEngine(
            processes=0, memory_budget=512, spill_dir=str(tmp_path / "runs")
        )
        engine.run_pipeline(
            list(range(3000)), [MapStep(KeyedEmit(4)), ReduceStep(Add())]
        )
        # The per-job subdirectory (and every run in it) is swept.
        assert os.listdir(tmp_path / "runs") == []

    def test_spill_runs_swept_even_when_job_fails(self, tmp_path):
        class BoomReduce:
            def __call__(self, a, b):
                raise RuntimeError("mid-job failure")

        engine = MultiprocessEngine(
            processes=0, memory_budget=512, spill_dir=str(tmp_path / "runs")
        )
        with pytest.raises(RuntimeError, match="mid-job failure"):
            engine.run_pipeline(
                list(range(3000)),
                [MapStep(KeyedEmit(4)), ReduceStep(BoomReduce(), combine=False)],
            )
        # No orphan run files accumulate in the caller's spill dir.
        assert os.listdir(tmp_path / "runs") == []

    def test_concurrent_jobs_share_spill_dir_without_collision(self, tmp_path):
        records = list(range(4000))
        steps = [MapStep(KeyedEmit(13)), ReduceStep(Add())]
        expected = in_memory(records, steps).pairs
        shared = str(tmp_path / "shared")
        from concurrent.futures import ThreadPoolExecutor

        def job(_):
            engine = MultiprocessEngine(
                processes=0, memory_budget=1024, spill_dir=shared
            )
            return engine.run_pipeline(records, steps).pairs

        with ThreadPoolExecutor(max_workers=3) as pool:
            results = list(pool.map(job, range(3)))
        assert all(pairs == expected for pairs in results)

    def test_unwritable_spill_dir_fails_before_work(self, tmp_path):
        # A regular file where the spill dir should go: makedirs cannot
        # succeed, so the probe raises before any chunk is processed.
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        engine = MultiprocessEngine(
            processes=0, memory_budget=512, spill_dir=str(blocker / "sub")
        )
        with pytest.raises(SpillError, match="not writable"):
            engine.run_pipeline(
                list(range(100)), [MapStep(KeyedEmit()), ReduceStep(Add())]
            )

    def test_budget_below_record_size_raises_through_engine(self):
        engine = MultiprocessEngine(processes=0, memory_budget=4)
        with pytest.raises(SpillError, match="smaller than a single record"):
            engine.run_pipeline(
                list(range(100)), [MapStep(KeyedEmit()), ReduceStep(Add())]
            )

    def test_non_positive_budget_rejected(self):
        engine = MultiprocessEngine(processes=0, memory_budget=0)
        with pytest.raises(SpillError, match="positive"):
            engine.run_pipeline([1, 2, 3], [MapStep(KeyedEmit())])


# ----------------------------------------------------------------------
# large_scale datagen


class TestLargeScaleDatagen:
    def test_streams_deterministically_without_materializing(self):
        source = datagen.large_scale(10_000, seed=3, kind="words")
        assert isinstance(source, Dataset)
        assert source.known_length == 10_000
        first = source.head(50)
        again = source.head(50)
        assert first == again  # replayable pass
        assert all(isinstance(w, str) for w in first)

    def test_kinds_and_unknown_length(self):
        ints = datagen.large_scale(100, kind="ints")
        assert all(isinstance(v, int) for v in ints.materialize())
        views = datagen.large_scale(50, kind="pageviews").materialize()
        assert all(isinstance(v, Instance) for v in views)
        hidden = datagen.large_scale(100, kind="words", known_length=False)
        assert hidden.known_length is None
        assert len(hidden.materialize()) == 100

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError, match="unknown large_scale kind"):
            datagen.large_scale(10, kind="tachyons")
        with pytest.raises(WorkloadError, match="non-negative"):
            datagen.large_scale(-1)

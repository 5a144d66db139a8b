"""Out-of-core execution: dataset sources, spill shuffle, streaming engine."""

from __future__ import annotations

import functools
import json
import os

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
from repro.engine.spill import SpillWriter, merge_partition, partition_of
from repro.errors import EngineError, SpillError, WorkloadError
from repro.lang.values import Instance
from repro.workloads import datagen


class KeyedEmit:
    """Picklable record → [(key, value)] mapper for tests."""

    def __init__(self, modulo: int = 10):
        self.modulo = modulo

    def __call__(self, record):
        return [(record % self.modulo, record)]


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
        merged = {}
        for partition in range(4):
            for key, value in merge_partition(
                writer.run_files[partition], lambda a, b: a - b
            ):
                merged[key] = value
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
